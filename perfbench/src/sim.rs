//! The `sim` workload: direct simulator calls on one thread.
//!
//! Every (program × backend) cell compiles during set-up and then runs
//! round-robin — `Simulator::rebuild_or_new` + `Simulator::run` through
//! the cell's own arena slot, the long-lived-worker pattern — until the
//! window closes. Compute-dense cells (Fig-7 micro kinds, RSA modexp)
//! sit beside stall-heavy ones (the membound pair at a 600-cycle
//! far-memory latency) under default skip stepping, and the `longrun`
//! group runs under tiered stepping, so a change to the pipeline, the
//! cycle skip or the fast-forward tier moves this workload while
//! compile and service code do no work here.

use std::time::Instant;

use sempe_compile::{compile, CompiledWorkload, WirProgram};
use sempe_core::json::Json;
use sempe_service::BackendSel;
use sempe_sim::{SimConfig, SimStats, Simulator, Stepping};
use sempe_workloads::longrun::{
    longrun_djpeg_program, longrun_modexp_program, LongrunDjpegParams, LongrunModexpParams,
};
use sempe_workloads::membound::{pointer_chase_program, pointer_chase_reference, ChaseParams};
use sempe_workloads::micro::{fig7_program, MicroParams, WorkloadKind};
use sempe_workloads::rng::SplitMix64;
use sempe_workloads::rsa::{
    modexp_program, modexp_reference, table_modexp_program, ModexpParams, TableModexpParams,
};

use crate::host;
use crate::stats::{geomean, ratio};
use crate::trace::{self, Tracer};
use crate::{metric, more_setup, sample_rss, sampled, Cfg, Metric, Outcome, Window, LAYERS};

/// Main-memory latency of the membound pair, in cycles (the far-memory
/// tier `sim_throughput` measures the same pair at).
const FAR_MEM_LATENCY: u64 = 600;
/// Host time each cell gets per round, ns: a few runs of the longest
/// cell's program, many of the shortest's.
const CELL_BUDGET_NS: u64 = 25_000_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Group {
    Micro,
    Rsa,
    Membound,
    Longrun,
}

impl Group {
    fn name(self) -> &'static str {
        match self {
            Group::Micro => "micro",
            Group::Rsa => "rsa",
            Group::Membound => "membound",
            Group::Longrun => "longrun",
        }
    }
}

/// One seeded program of the workload.
struct Program {
    name: &'static str,
    group: Group,
    wir: WirProgram,
    /// Host-side reference outputs, where the workload has one.
    reference: Option<Vec<u64>>,
    /// The same program under a second seeded secret, for the SeMPE
    /// leak check (micro and rsa only).
    twin: Option<WirProgram>,
    /// Fig-7 parameters, for the ideal-overhead paths (micro only).
    micro: Option<MicroParams>,
}

fn programs(seed: u64) -> (Vec<Program>, Json) {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    let mut params = Json::obj();
    for kind in WorkloadKind::ALL {
        // Queens is exponential in its board size, and CTE runs every
        // path of every board: sized so no single cell dominates a round.
        let (w, iters, scale) = match kind {
            WorkloadKind::Queens => (1, 1, 4),
            WorkloadKind::Quicksort => (2, 1, 8),
            _ => (2, 4, 16),
        };
        let mask = (1u64 << w) - 1;
        let secrets = rng.next_u64() & mask;
        let twin_secrets = (secrets + 1 + rng.next_u64() % mask) & mask;
        let p = MicroParams { kind, w, iters, scale, secrets };
        params.set(
            kind.name(),
            Json::obj()
                .with("w", w)
                .with("iters", iters)
                .with("scale", scale)
                .with("secrets", secrets),
        );
        out.push(Program {
            name: kind.name(),
            group: Group::Micro,
            wir: fig7_program(&p),
            reference: None,
            twin: Some(fig7_program(&MicroParams { secrets: twin_secrets, ..p })),
            micro: Some(p),
        });
    }
    let rsa = ModexpParams {
        base: rng.range_inclusive(2, 1000),
        exponent: rng.next_u64() | 1 << 63,
        bits: 64,
        ..ModexpParams::default()
    };
    let twin_exponent = rng.next_u64() | 1 << 63;
    params.set(
        "rsa-modexp64",
        Json::obj().with("base", rsa.base).with("exponent", rsa.exponent).with("bits", rsa.bits),
    );
    out.push(Program {
        name: "rsa-modexp64",
        group: Group::Rsa,
        wir: modexp_program(&rsa),
        reference: Some(vec![modexp_reference(&rsa)]),
        twin: Some(modexp_program(&ModexpParams { exponent: twin_exponent, ..rsa })),
        micro: None,
    });
    let chase = ChaseParams { words: 1 << 17, iters: 4096 };
    let (acc, x) = pointer_chase_reference(&chase);
    params.set("chase-1m", Json::obj().with("words", chase.words).with("iters", chase.iters));
    out.push(Program {
        name: "chase-1m",
        group: Group::Membound,
        wir: pointer_chase_program(&chase),
        reference: Some(vec![acc, x]),
        twin: None,
        micro: None,
    });
    let tmx = TableModexpParams { table_words: 1 << 16, bits: 256, key: rng.next_u64() };
    params.set(
        "table-modexp-512k",
        Json::obj()
            .with("table_words", tmx.table_words)
            .with("bits", tmx.bits)
            .with("key", tmx.key),
    );
    out.push(Program {
        name: "table-modexp-512k",
        group: Group::Membound,
        wir: table_modexp_program(&tmx).0,
        reference: None,
        twin: None,
        micro: None,
    });
    let lm = LongrunModexpParams { table_words: 1 << 12, bits: 8, key: rng.next_u64() & 0xFF };
    params.set(
        "longrun-modexp",
        Json::obj().with("table_words", lm.table_words).with("bits", lm.bits).with("key", lm.key),
    );
    out.push(Program {
        name: "longrun-modexp",
        group: Group::Longrun,
        wir: longrun_modexp_program(&lm).0,
        reference: None,
        twin: None,
        micro: None,
    });
    let ld = LongrunDjpegParams {
        blocks: 16,
        public_iters: 3000,
        seed: rng.next_u64(),
        ..LongrunDjpegParams::default()
    };
    params.set(
        "longrun-djpeg",
        Json::obj()
            .with("blocks", ld.blocks)
            .with("public_iters", ld.public_iters)
            .with("seed", ld.seed),
    );
    out.push(Program {
        name: "longrun-djpeg",
        group: Group::Longrun,
        wir: longrun_djpeg_program(&ld),
        reference: None,
        twin: None,
        micro: None,
    });
    params.set("far_mem_latency", FAR_MEM_LATENCY);
    (out, params)
}

fn cell_config(group: Group, sel: BackendSel) -> SimConfig {
    let mut config = sel.sim_config();
    if group == Group::Membound {
        config.mem.mem_latency = FAR_MEM_LATENCY;
    }
    if group == Group::Longrun {
        config = config.with_stepping(Stepping::Tiered);
    }
    config
}

/// One (program × backend) cell with its arena slot.
struct Cell {
    program: usize,
    sel: BackendSel,
    tiered: bool,
    config: SimConfig,
    cw: CompiledWorkload,
    slot: Option<Simulator>,
    /// Stats and outputs of the cell's first run: every later run must
    /// repeat them exactly.
    first: Option<(SimStats, Vec<u64>)>,
}

/// One measured `rebuild_or_new` + `run`.
struct Rep {
    cell: usize,
    total_ns: u64,
    stats: SimStats,
    skipped_cycles: u64,
}

fn setup(progs: &[Program], tracer: &mut Tracer) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for (pi, p) in progs.iter().enumerate() {
        for sel in BackendSel::ALL {
            let config = cell_config(p.group, sel);
            let cw = tracer
                .span("compile.codegen", pi as u64, None, || compile(&p.wir, sel.backend()))
                .map_err(|e| format!("{}/{}: {e}", p.name, sel.name()))?;
            let mut slot = None;
            Simulator::rebuild_or_new(&mut slot, cw.program(), config)
                .map_err(|e| format!("{}/{}: {e}", p.name, sel.name()))?;
            cells.push(Cell {
                program: pi,
                sel,
                tiered: p.group == Group::Longrun,
                config,
                cw,
                slot,
                first: None,
            });
        }
    }
    Ok(cells)
}

/// Run every cell round-robin until `window` has passed (at least one
/// full round), and time the host probe after each round. Within a
/// round a cell repeats until it has used [`CELL_BUDGET_NS`], so every
/// cell gets about the same share of the window, however long its
/// program runs. Returns the reps and the probe times.
fn measure(
    cells: &mut [Cell],
    progs: &[Program],
    window: std::time::Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(Vec<Rep>, Vec<f64>), String> {
    let mut reps = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    let mut round = 0u64;
    'rounds: loop {
        for (ci, cell) in cells.iter_mut().enumerate() {
            if round > 0 && start.elapsed() >= window {
                break 'rounds;
            }
            let mut spent_ns = 0;
            while spent_ns < CELL_BUDGET_NS {
                let req = reps.len() as u64;
                let t0 = Instant::now();
                let root = tracer.open("sim.cell", req, None);
                let id = tracer.open("sim.rebuild", req, root);
                let built =
                    Simulator::rebuild_or_new(&mut cell.slot, cell.cw.program(), cell.config)
                        .map(|_| ());
                tracer.close(id);
                built.map_err(|e| format!("rebuild: {e}"))?;
                let sim = cell.slot.as_mut().expect("built above");
                let id = tracer.open(
                    if cell.tiered { "sim.tiered.run" } else { "sim.detailed.run" },
                    req,
                    root,
                );
                let res = sim.run(u64::MAX);
                tracer.close(id);
                tracer.close(root);
                let total_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let p = &progs[cell.program];
                let res = res.map_err(|e| format!("{}/{}: {e}", p.name, cell.sel.name()))?;
                let host = sim.take_host_profile();
                let outputs = cell.cw.read_outputs(sim.mem());
                match &cell.first {
                    None => cell.first = Some((res.stats, outputs)),
                    Some((stats, first_out)) => out.check(
                        stats.cycles == res.stats.cycles
                            && stats.committed == res.stats.committed
                            && *first_out == outputs,
                        || {
                            format!(
                                "{}/{}: a repeated run changed cycles, committed or outputs",
                                p.name,
                                cell.sel.name()
                            )
                        },
                    ),
                }
                reps.push(Rep {
                    cell: ci,
                    total_ns,
                    stats: res.stats,
                    skipped_cycles: host.skipped_cycles,
                });
                spent_ns += total_ns;
            }
        }
        round += 1;
        probes.push(host::probe_ns());
    }
    Ok((reps, probes))
}

/// Each cell's fastest rep, ns, in cell order.
fn fastest_ns(cells: &[Cell], reps: &[Rep]) -> Vec<u64> {
    let mut best = vec![u64::MAX; cells.len()];
    for r in reps {
        best[r.cell] = best[r.cell].min(r.total_ns);
    }
    best
}

/// A cell's time is its fastest rep: its runs are deterministic, so
/// host noise only ever adds time. Times are then rescaled to the
/// reference host by the window's fastest probe ([`host::speed`]), so a
/// phase of neighbouring load that outlasts the run cancels out.
/// `latency_us` is the geometric mean of the cells' times (a typical
/// cell's run) and `tail_us` their sum (one pass over every cell, which
/// the longest cells dominate): both pool every cell, where a
/// percentile would report one cell's jitter.
fn window_metrics(cells: &[Cell], reps: &[Rep], probes: &[f64]) -> Window {
    let speed = host::speed(probes);
    let cell_us: Vec<f64> =
        fastest_ns(cells, reps).iter().map(|&ns| ns as f64 / 1e3 * speed).collect();
    // Committed instructions per second of each selected cell's run.
    let rate = |pick: &dyn Fn(&Cell) -> bool| {
        let rates: Vec<f64> = (cells.iter().zip(&cell_us))
            .filter(|(c, _)| pick(c))
            .map(|(c, us)| c.first.as_ref().map_or(0, |f| f.0.committed) as f64 / us * 1e6)
            .collect();
        geomean(&rates)
    };
    let all = rate(&|_| true);
    let detailed = rate(&|c| !c.tiered) / 1e6;
    let tiered = rate(&|c| c.tiered) / 1e6;
    Window {
        contract: vec![
            metric("throughput", all, "1/s"),
            sampled("latency_us", geomean(&cell_us), "us", reps.len()),
            sampled("tail_us", cell_us.iter().sum(), "us", reps.len()),
        ],
        named: vec![
            sampled("sim_detailed_mips", detailed, "MIPS", reps.len()),
            sampled("sim_tiered_mips", tiered, "MIPS", reps.len()),
            sampled("host_speed", speed, "x", probes.len()),
        ],
        attempted: reps.len() as u64,
        failed: 0,
    }
}

fn run_once(cw: &CompiledWorkload, config: SimConfig) -> Result<(SimStats, Vec<u64>), String> {
    let mut sim = Simulator::new(cw.program(), config).map_err(|e| e.to_string())?;
    let res = sim.run(u64::MAX).map_err(|e| e.to_string())?;
    Ok((res.stats, cw.read_outputs(sim.mem())))
}

/// Off-the-clock correctness checks plus the simulated `sempe_vs_ideal_x`.
fn check(cells: &[Cell], progs: &[Program], out: &mut Outcome) -> Result<f64, String> {
    let mut ideal_ratios = Vec::new();
    for (pi, p) in progs.iter().enumerate() {
        let mine: Vec<&Cell> = cells.iter().filter(|c| c.program == pi).collect();
        let first = |sel: BackendSel| {
            mine.iter()
                .find(|c| c.sel == sel)
                .and_then(|c| c.first.as_ref())
                .expect("every cell ran")
        };
        let base = first(BackendSel::Baseline);
        for sel in [BackendSel::Sempe, BackendSel::Cte] {
            out.check(first(sel).1 == base.1, || {
                format!(
                    "{}: {} outputs {:?} differ from baseline {:?}",
                    p.name,
                    sel.name(),
                    first(sel).1,
                    base.1
                )
            });
        }
        if let Some(want) = &p.reference {
            out.check(base.1 == *want, || {
                format!(
                    "{}: outputs {:?} differ from the host reference {:?}",
                    p.name, base.1, want
                )
            });
        }
        if p.group == Group::Longrun {
            // Tiered execution must be architecturally invisible.
            for c in &mine {
                let (stats, outputs) = run_once(&c.cw, c.config.with_stepping(Stepping::Skip))?;
                let (t_stats, t_out) = c.first.as_ref().expect("every cell ran");
                out.check(stats.committed == t_stats.committed && outputs == *t_out, || {
                    format!("{}/{}: tiered run differs from detailed", p.name, c.sel.name())
                });
            }
        }
        if let Some(twin) = &p.twin {
            // The paper's security claim: SeMPE timing is independent of
            // the secret.
            let cw = compile(twin, BackendSel::Sempe.backend()).map_err(|e| e.to_string())?;
            let (stats, _) = run_once(&cw, cell_config(p.group, BackendSel::Sempe))?;
            let sempe = &first(BackendSel::Sempe).0;
            out.check(stats.cycles == sempe.cycles && stats.committed == sempe.committed, || {
                format!(
                    "{}: SeMPE cycles/committed depend on the secret ({}/{} vs {}/{})",
                    p.name, sempe.cycles, sempe.committed, stats.cycles, stats.committed
                )
            });
        }
        if let Some(mp) = &p.micro {
            // §IV-A ideal: the sum of every branch path's baseline time
            // (the numerator of `sempe_bench::ideal_cycles_micro`).
            let mut sum = 0u64;
            for k in 0..=mp.w {
                let secrets = if k == mp.w { 0 } else { 1u64 << k };
                let cw = compile(
                    &fig7_program(&MicroParams { secrets, ..*mp }),
                    BackendSel::Baseline.backend(),
                )
                .map_err(|e| e.to_string())?;
                sum += run_once(&cw, BackendSel::Baseline.sim_config())?.0.cycles;
            }
            ideal_ratios.push(first(BackendSel::Sempe).0.cycles as f64 / sum as f64);
        }
    }
    Ok(geomean(&ideal_ratios))
}

fn layers(
    cells: &[Cell],
    reps: &[Rep],
    tracer_spans: &[trace::SpanRec],
    setup_spans: &[trace::SpanRec],
) -> Vec<Metric> {
    let times = trace::self_times(tracer_spans);
    let setup_times = trace::self_times(setup_spans);
    let sum = |pick: &dyn Fn(&Rep) -> bool, f: &dyn Fn(&Rep) -> u64| -> f64 {
        reps.iter().filter(|r| pick(r)).map(|r| f(r) as f64).sum()
    };
    let detailed = |r: &Rep| !cells[r.cell].tiered;
    let tiered = |r: &Rep| cells[r.cell].tiered;
    let sempe = |r: &Rep| !cells[r.cell].tiered && cells[r.cell].sel == BackendSel::Sempe;
    let value = |name: &str| -> f64 {
        match name {
            "sim.detailed.ns_per_insn" => ratio(
                trace::total_self_us(&times, "sim.detailed.run") * 1e3,
                sum(&detailed, &|r| r.stats.committed),
            ),
            "sim.skip.cycle_frac" => {
                ratio(sum(&detailed, &|r| r.skipped_cycles), sum(&detailed, &|r| r.stats.cycles))
            }
            "sim.tiered.ns_per_insn" => ratio(
                trace::total_self_us(&times, "sim.tiered.run") * 1e3,
                sum(&tiered, &|r| r.stats.committed),
            ),
            "sim.tiered.ff_frac" => {
                ratio(sum(&tiered, &|r| r.stats.ff_committed), sum(&tiered, &|r| r.stats.committed))
            }
            "sim.commit_per_fetch" => {
                ratio(sum(&detailed, &|r| r.stats.committed), sum(&detailed, &|r| r.stats.fetched))
            }
            "sim.sempe.drain_stall_frac" => ratio(
                sum(&sempe, &|r| r.stats.drain_stall_cycles),
                sum(&sempe, &|r| r.stats.cycles),
            ),
            "sim.rebuild_us" => trace::mean_self_us(&times, "sim.rebuild"),
            "compile.codegen_us" => trace::mean_self_us(&setup_times, "compile.codegen"),
            _ => 0.0,
        }
    };
    LAYERS.iter().map(|(name, unit)| metric(name, value(name), unit)).collect()
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut setup_tracer = Tracer::new(epoch, cfg.trace);
    let mut cells = Vec::new();
    let mut progs = Vec::new();
    while more_setup(&mut out) {
        setup_tracer.spans.clear();
        let t0 = Instant::now();
        let (p, params) = programs(cfg.seed);
        cells = setup(&p, &mut setup_tracer)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        progs = p;
        out.params = params;
    }

    let mut off = Tracer::new(epoch, false);
    if cfg.trace {
        let half = cfg.window / 2;
        let (plain, rss) = sample_rss(|| measure(&mut cells, &progs, half, &mut off, &mut out));
        let (plain, probes) = plain?;
        out.peak_rss_mb = rss;
        out.plain = window_metrics(&cells, &plain, &probes);
        let mut on = Tracer::new(epoch, true);
        let (traced, probes) = measure(&mut cells, &progs, half, &mut on, &mut out)?;
        out.traced = Some(window_metrics(&cells, &traced, &probes));
        out.layers = layers(&cells, &traced, &on.spans, &setup_tracer.spans);
        setup_tracer.drain_into(&mut out.spans);
        on.drain_into(&mut out.spans);
    } else {
        let (reps, rss) =
            sample_rss(|| measure(&mut cells, &progs, cfg.window, &mut off, &mut out));
        let (reps, probes) = reps?;
        out.peak_rss_mb = rss;
        out.plain = window_metrics(&cells, &reps, &probes);
        // Each cell's share of the measured time, so a cell that
        // dominates the window shows.
        let total_ns: u64 = reps.iter().map(|r| r.total_ns).sum();
        let mut share: Vec<(f64, String)> = cells
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                let ns: u64 = reps.iter().filter(|r| r.cell == ci).map(|r| r.total_ns).sum();
                (ns as f64 / total_ns as f64, format!("{}/{}", progs[c.program].name, c.sel.name()))
            })
            .collect();
        share.sort_by(|a, b| b.0.total_cmp(&a.0));
        let fastest: Vec<String> = fastest_ns(&cells, &reps)
            .iter()
            .zip(&cells)
            .map(|(ns, c)| {
                format!("{}/{} {:.2}", progs[c.program].name, c.sel.name(), *ns as f64 / 1e6)
            })
            .collect();
        out.notes.push(format!(
            "largest cell {} takes {:.1}% of the measured time; fastest run per cell (ms): {}",
            share[0].1,
            100.0 * share[0].0,
            fastest.join(", ")
        ));
    }
    let ideal = check(&cells, &progs, &mut out)?;
    out.plain.named.push(metric("sempe_vs_ideal_x", ideal, "x"));
    if let Some(t) = out.traced.as_mut() {
        t.named.push(metric("sempe_vs_ideal_x", ideal, "x"));
    }
    let groups: Vec<&str> = progs.iter().map(|p| p.group.name()).collect();
    out.params.set("groups", Json::Arr(groups.into_iter().map(Json::from).collect()));
    Ok(out)
}

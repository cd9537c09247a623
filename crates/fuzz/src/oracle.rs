//! The differential oracle: one WIR program, every execution engine,
//! every observable compared.
//!
//! For a program `P` (materialized with secret `s0`) the oracle runs:
//!
//! | engine | machine | compared against the WIR interpreter |
//! |---|---|---|
//! | `baseline` backend | legacy interp, baseline pipeline | outputs, arrays, committed count |
//! | `sempe` backend | legacy interp, SeMPE-functional interp, SeMPE pipeline, **legacy pipeline** (backward compat) | outputs, arrays, committed count |
//! | `cte` backend | legacy interp, baseline pipeline | outputs, arrays, committed count |
//!
//! and, for constant-time-profile cases, re-materializes `P` with the
//! paired secret `s1` and checks the **leak invariant** on the protected
//! backends: committed instruction counts, cycle counts, and full
//! observation traces (under [`Strictness::Full`]) must be identical
//! across the pair.
//!
//! Every (backend × machine) pair additionally runs the **fork
//! differential**: the program is checkpointed at the post-load quiesce
//! point, run, restored, and run again — the restored run must be
//! bit-for-bit identical (cycles, committed count, outputs,
//! `Strictness::Full` trace) to cold execution, which is the invariant
//! the service's fork server rests on.
//!
//! Every (backend × machine) pair also runs the **cycle-skip
//! differential**: the same binary under forced classic 1-cycle
//! stepping versus the default next-event fast-forward. Skipping is
//! supposed to be semantically invisible, so cycles, committed counts,
//! outputs, and `Strictness::Full` traces must agree exactly; every
//! generated program proves it.
//!
//! Finally, every (backend × machine) pair runs the **tiered
//! differential**: the same binary under tiered stepping (functional
//! fast-forward between the regions of interest, detailed pipeline
//! inside them). Fast-forwarding must be architecturally invisible —
//! committed counts, outputs, final array state, and the detailed-span
//! count must match the full-detailed run exactly, and ROI cycle
//! counts must stay within the warmup exactness budget documented in
//! `sempe_sim::tier`.

use core::fmt;

use sempe_compile::{compile, run_wir, Backend, CompiledWorkload, WirProgram, WirResult};
use sempe_core::{first_divergence, Strictness};
use sempe_isa::interp::{Interp, InterpMode};
use sempe_isa::reg::Reg;
use sempe_sim::{SimConfig, Simulator, Stepping};

use crate::gen::{FuzzCase, Profile};

/// Interpreter fuel (instructions) per run.
pub const INTERP_FUEL: u64 = 20_000_000;
/// Simulator fuel (cycles) per run.
pub const SIM_FUEL: u64 = 50_000_000;

/// Which backends the differential run exercises (the WIR interpreter
/// always runs — it is the oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSet {
    /// Exercise the baseline backend.
    pub baseline: bool,
    /// Exercise the SeMPE backend.
    pub sempe: bool,
    /// Exercise the constant-time-expression backend.
    pub cte: bool,
}

impl EngineSet {
    /// Everything.
    #[must_use]
    pub const fn all() -> Self {
        EngineSet { baseline: true, sempe: true, cte: true }
    }

    /// Parse `--backend-pair` syntax: `all` or a comma-separated subset
    /// of `baseline,sempe,cte` (the reference interpreter is always the
    /// other half of every pair).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        if s == "all" {
            return Some(Self::all());
        }
        let mut set = EngineSet { baseline: false, sempe: false, cte: false };
        for part in s.split(',') {
            match part.trim() {
                "baseline" => set.baseline = true,
                "sempe" => set.sempe = true,
                "cte" => set.cte = true,
                "wir" | "" => {}
                _ => return None,
            }
        }
        if set.baseline || set.sempe || set.cte {
            Some(set)
        } else {
            None
        }
    }
}

/// What kind of disagreement was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The generated program failed on the reference interpreter —
    /// a generator bug, not a backend bug.
    Invalid,
    /// A backend refused to compile a valid program.
    Compile,
    /// An engine faulted or failed to halt within fuel.
    Run,
    /// Final scalar state differs from the oracle.
    Scalars,
    /// Final array contents differ from the oracle.
    Arrays,
    /// Committed-instruction count differs between an interpreter and
    /// the cycle-level pipeline running the same binary.
    Committed,
    /// Leak: committed instructions depend on the secret.
    LeakCommitted,
    /// Leak: cycle count depends on the secret.
    LeakCycles,
    /// Leak: the observation trace depends on the secret.
    LeakTrace,
    /// The `to_source`/`parse_wir` round trip changed the program.
    Source,
    /// The `collapse_nested_ifs` rewrite changed observable behavior.
    Opt,
    /// A run restored from a checkpoint diverged from cold execution
    /// (cycles, committed count, outputs, or observation trace).
    Fork,
    /// A cycle-skipping run diverged from classic 1-cycle stepping
    /// (cycles, committed count, outputs, or observation trace).
    Skip,
    /// A tiered (fast-forward + detailed-ROI) run diverged from full
    /// detailed execution: committed count, outputs, final arrays, or
    /// ROI cycles outside the documented warmup budget.
    Tiered,
    /// The service stack (wire protocol, job queue, worker pool, result
    /// cache — under fault injection) disagreed with a direct simulator
    /// run, or failed to converge to a response at all.
    Service,
}

impl DivergenceKind {
    /// Stable name for reports.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DivergenceKind::Invalid => "invalid",
            DivergenceKind::Compile => "compile",
            DivergenceKind::Run => "run",
            DivergenceKind::Scalars => "scalars",
            DivergenceKind::Arrays => "arrays",
            DivergenceKind::Committed => "committed",
            DivergenceKind::LeakCommitted => "leak-committed",
            DivergenceKind::LeakCycles => "leak-cycles",
            DivergenceKind::LeakTrace => "leak-trace",
            DivergenceKind::Source => "source",
            DivergenceKind::Opt => "opt",
            DivergenceKind::Fork => "fork",
            DivergenceKind::Skip => "skip",
            DivergenceKind::Tiered => "tiered",
            DivergenceKind::Service => "service",
        }
    }
}

/// A confirmed disagreement between engines.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// What class of disagreement.
    pub kind: DivergenceKind,
    /// Which engine disagreed (e.g. `sempe/sim-paper`).
    pub engine: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.kind.name(), self.engine, self.detail)
    }
}

/// Work accounting for one checked case.
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// Engine executions performed.
    pub engine_runs: u64,
    /// Leak pairs checked.
    pub leak_pairs: u64,
}

/// A reusable simulator arena (rebuild instead of reallocate). The
/// second slot hosts the fork differential's machine.
#[derive(Debug, Default)]
pub struct SimArena {
    sim: Option<Simulator>,
    fork: Option<Simulator>,
}

impl SimArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        SimArena::default()
    }

    fn run(
        &mut self,
        cw: &CompiledWorkload,
        config: SimConfig,
        engine: &str,
    ) -> Result<&Simulator, Divergence> {
        let sim = Simulator::rebuild_or_new(&mut self.sim, cw.program(), config).map_err(|e| {
            Divergence {
                kind: DivergenceKind::Run,
                engine: engine.to_string(),
                detail: format!("simulator build failed: {e}"),
            }
        })?;
        let res = sim.run(SIM_FUEL).map_err(|e| Divergence {
            kind: DivergenceKind::Run,
            engine: engine.to_string(),
            detail: format!("simulator fault: {e}"),
        })?;
        if !res.halted {
            return Err(Divergence {
                kind: DivergenceKind::Run,
                engine: engine.to_string(),
                detail: format!("did not halt within {SIM_FUEL} cycles"),
            });
        }
        Ok(self.sim.as_ref().unwrap_or_else(|| unreachable!("just ran")))
    }

    /// The fork differential: checkpoint a freshly built machine at the
    /// post-load quiesce point, run it (dirtying registers, memory,
    /// caches, predictor), restore, and run again. Both runs — and in
    /// particular the *restored* one — must reproduce the cold run's
    /// cycle count and committed count bit for bit, agree with each
    /// other on outputs, the whole `SimStats`, the ROI spans and every
    /// architectural register, and leave `Strictness::Full`-identical
    /// observation traces. Every generated program goes through this, so
    /// a checkpoint field that silently leaks state across a restore
    /// shows up as a fuzz divergence, not as a wrong paper number.
    fn fork_check(
        &mut self,
        cw: &CompiledWorkload,
        config: SimConfig,
        engine: &str,
        want_cycles: u64,
        want_committed: u64,
    ) -> Result<(), Divergence> {
        let fail = |detail: String| Divergence {
            kind: DivergenceKind::Fork,
            engine: engine.to_string(),
            detail,
        };
        // Trace recording is observation-only; enabling it must not (and
        // does not) perturb timing, which this check also pins.
        let traced = config.with_trace();
        let sim = Simulator::rebuild_or_new(&mut self.fork, cw.program(), traced)
            .map_err(|e| fail(format!("fork machine build failed: {e}")))?;
        let cp =
            sim.checkpoint().map_err(|e| fail(format!("post-load checkpoint refused: {e}")))?;
        let first = sim.run(SIM_FUEL).map_err(|e| fail(format!("first run fault: {e}")))?;
        let first_outputs = cw.read_outputs(sim.mem());
        let first_trace = sim.trace().clone();
        let first_spans = sim.roi_spans().to_vec();
        let first_regs: Vec<u64> = Reg::all().map(|r| sim.arch_reg(r)).collect();
        sim.restore_from(&cp);
        let restored = sim.run(SIM_FUEL).map_err(|e| fail(format!("restored run fault: {e}")))?;
        for (which, res) in [("first", &first), ("restored", &restored)] {
            if res.stats.cycles != want_cycles {
                return Err(fail(format!(
                    "{which} forked run took {} cycles, cold run {want_cycles}",
                    res.stats.cycles
                )));
            }
            if res.stats.committed != want_committed {
                return Err(fail(format!(
                    "{which} forked run committed {}, cold run {want_committed}",
                    res.stats.committed
                )));
            }
        }
        let restored_outputs = cw.read_outputs(sim.mem());
        if restored_outputs != first_outputs {
            return Err(fail(format!(
                "restored outputs {restored_outputs:?} != pre-restore outputs {first_outputs:?}"
            )));
        }
        if let Some(d) = first_divergence(&first_trace, sim.trace(), Strictness::Full) {
            return Err(fail(format!("restored trace diverges: {d:?}")));
        }
        if restored.stats != first.stats {
            return Err(fail(format!(
                "restored stats {:?} != pre-restore stats {:?}",
                restored.stats, first.stats
            )));
        }
        if sim.roi_spans() != first_spans.as_slice() {
            return Err(fail(format!(
                "restored ROI spans {:?} != pre-restore spans {first_spans:?}",
                sim.roi_spans()
            )));
        }
        if let Some(r) = Reg::all().find(|&r| sim.arch_reg(r) != first_regs[r.index()]) {
            return Err(fail(format!(
                "restored {r:?} = {:#x}, pre-restore {:#x}",
                sim.arch_reg(r),
                first_regs[r.index()]
            )));
        }
        Ok(())
    }

    /// The cycle-skip differential: run the binary under forced classic
    /// 1-cycle stepping and under the default next-event fast-forward;
    /// both must reproduce the cold run's cycle and committed counts bit
    /// for bit, agree on outputs, and leave `Strictness::Full`-identical
    /// observation traces. Every generated program goes through this, so
    /// a missed wake source (a timer the skip jumps over) shows up as a
    /// fuzz divergence, not as a wrong paper number.
    fn skip_check(
        &mut self,
        cw: &CompiledWorkload,
        config: SimConfig,
        engine: &str,
        want_cycles: u64,
        want_committed: u64,
    ) -> Result<(), Divergence> {
        let fail = |detail: String| Divergence {
            kind: DivergenceKind::Skip,
            engine: engine.to_string(),
            detail,
        };
        let traced = config.with_trace();
        let sim = Simulator::rebuild_or_new(&mut self.fork, cw.program(), traced)
            .map_err(|e| fail(format!("skip machine build failed: {e}")))?;
        let skip_res = sim.run(SIM_FUEL).map_err(|e| fail(format!("skipping run fault: {e}")))?;
        let skip_outputs = cw.read_outputs(sim.mem());
        let skip_trace = sim.trace().clone();
        let sim =
            Simulator::rebuild_or_new(&mut self.fork, cw.program(), traced.with_classic_stepping())
                .map_err(|e| fail(format!("classic machine build failed: {e}")))?;
        let classic_res = sim.run(SIM_FUEL).map_err(|e| fail(format!("classic run fault: {e}")))?;
        for (which, res) in [("skipping", &skip_res), ("classic", &classic_res)] {
            if res.stats.cycles != want_cycles {
                return Err(fail(format!(
                    "{which} run took {} cycles, cold run {want_cycles}",
                    res.stats.cycles
                )));
            }
            if res.stats.committed != want_committed {
                return Err(fail(format!(
                    "{which} run committed {}, cold run {want_committed}",
                    res.stats.committed
                )));
            }
        }
        // The whole statistics block, not just cycles/committed: a
        // bulk-accounting slip in the skipped-span arithmetic (e.g.
        // drain_stall_cycles) would leave every other observable intact.
        if skip_res.stats != classic_res.stats {
            return Err(fail(format!(
                "statistics diverge between stepping modes: skipping {:?} != classic {:?}",
                skip_res.stats, classic_res.stats
            )));
        }
        let classic_outputs = cw.read_outputs(sim.mem());
        if classic_outputs != skip_outputs {
            return Err(fail(format!(
                "classic outputs {classic_outputs:?} != skipping outputs {skip_outputs:?}"
            )));
        }
        if let Some(d) = first_divergence(&skip_trace, sim.trace(), Strictness::Full) {
            return Err(fail(format!("skip/classic traces diverge: {d:?}")));
        }
        Ok(())
    }

    /// The tiered differential: run the binary under tiered stepping
    /// (functional fast-forward outside the regions of interest,
    /// detailed pipeline inside) and compare against the cold full-
    /// detailed run. Fast-forwarding must be architecturally invisible —
    /// committed count, outputs, final (non-scratch) array state, and
    /// the number of detailed ROI spans must match exactly. ROI cycle
    /// counts are usually bit-identical too, but warmup is approximate
    /// by design (see `sempe_sim::tier`'s exactness budget: a full run's
    /// front end can run ahead into region code during pre-region
    /// stalls), so they are held to the documented budget instead:
    /// within ±(50% + 64 cycles) of the full-detailed count. A real
    /// accounting bug — FF gaps billed to the ROI, spans never closed —
    /// blows far past that band; warmup noise does not.
    #[allow(clippy::too_many_arguments)]
    fn tiered_check(
        &mut self,
        prog: &WirProgram,
        cw: &CompiledWorkload,
        config: SimConfig,
        engine: &str,
        want: &WirResult,
        want_committed: u64,
        want_roi: u64,
        want_spans: usize,
    ) -> Result<(), Divergence> {
        let fail = |detail: String| Divergence {
            kind: DivergenceKind::Tiered,
            engine: engine.to_string(),
            detail,
        };
        let tiered = config.with_stepping(Stepping::Tiered);
        let sim = Simulator::rebuild_or_new(&mut self.fork, cw.program(), tiered)
            .map_err(|e| fail(format!("tiered machine build failed: {e}")))?;
        let res = sim.run(SIM_FUEL).map_err(|e| fail(format!("tiered run fault: {e}")))?;
        if !res.halted {
            return Err(fail(format!("did not halt within {SIM_FUEL} cycles of fuel")));
        }
        if res.stats.committed != want_committed {
            return Err(fail(format!(
                "tiered run committed {} instructions, full detailed run {want_committed}",
                res.stats.committed
            )));
        }
        compare_state(prog, cw, sim.mem(), want, engine)
            .map_err(|d| fail(format!("architectural state diverges: {d}")))?;
        if res.stats.ff_committed > res.stats.committed {
            return Err(fail(format!(
                "fast-forward accounting overflows the commit count: {} of {}",
                res.stats.ff_committed, res.stats.committed
            )));
        }
        if sim.roi_spans().len() != want_spans {
            return Err(fail(format!(
                "tiered run opened {} detailed spans, full detailed run {want_spans}",
                sim.roi_spans().len()
            )));
        }
        let roi = res.stats.roi_cycles;
        let budget = want_roi / 2 + 64;
        if roi.abs_diff(want_roi) > budget {
            return Err(fail(format!(
                "ROI cycle count {roi} outside the warmup budget: full detailed run \
                 {want_roi} ± {budget}"
            )));
        }
        Ok(())
    }
}

fn compile_backend(prog: &WirProgram, backend: Backend) -> Result<CompiledWorkload, Divergence> {
    compile(prog, backend).map_err(|e| Divergence {
        kind: DivergenceKind::Compile,
        engine: backend.to_string(),
        detail: e.to_string(),
    })
}

/// Compare every observable architectural fact against the oracle.
fn compare_state(
    prog: &WirProgram,
    cw: &CompiledWorkload,
    mem: &sempe_isa::mem::Memory,
    want: &WirResult,
    engine: &str,
) -> Result<(), Divergence> {
    let outputs = cw.read_outputs(mem);
    if outputs != want.outputs {
        return Err(Divergence {
            kind: DivergenceKind::Scalars,
            engine: engine.to_string(),
            detail: format!("outputs {outputs:?} != oracle {:?}", want.outputs),
        });
    }
    let arrays = cw.read_arrays(mem);
    for (i, decl) in prog.arrays().iter().enumerate() {
        // Declared-scratch arrays are dead after their block (the Sempe
        // backend deliberately lets wrong-path writes land in them), so
        // their final contents are not an architectural observable.
        if decl.scratch {
            continue;
        }
        if arrays[i] != want.arrays[i] {
            return Err(Divergence {
                kind: DivergenceKind::Arrays,
                engine: engine.to_string(),
                detail: format!(
                    "array `{}` {:?} != oracle {:?}",
                    decl.name, arrays[i], want.arrays[i]
                ),
            });
        }
    }
    Ok(())
}

fn run_interp(
    cw: &CompiledWorkload,
    mode: InterpMode,
    engine: &str,
) -> Result<(Interp, u64), Divergence> {
    let mut i = Interp::new(cw.program(), mode).map_err(|e| Divergence {
        kind: DivergenceKind::Run,
        engine: engine.to_string(),
        detail: format!("interpreter build failed: {e}"),
    })?;
    let summary = i.run(INTERP_FUEL).map_err(|e| Divergence {
        kind: DivergenceKind::Run,
        engine: engine.to_string(),
        detail: format!("interpreter fault: {e}"),
    })?;
    if !summary.halted {
        return Err(Divergence {
            kind: DivergenceKind::Run,
            engine: engine.to_string(),
            detail: format!("did not halt within {INTERP_FUEL} instructions"),
        });
    }
    Ok((i, summary.committed))
}

struct BackendPlan {
    backend: Backend,
    /// (interp mode, pipeline config) pairs whose committed counts must
    /// agree — the pipeline must commit exactly the instructions the
    /// matching interpreter executes.
    machines: Vec<(InterpMode, SimConfig)>,
}

/// Differentially check one materialized program (plus, when `p1` is
/// given, the leak invariant across the paired materialization).
/// `secrets` names the secret-declared variables (for the source
/// round-trip check).
///
/// # Errors
///
/// The first [`Divergence`] found.
pub fn check_program(
    p0: &WirProgram,
    secrets: &[sempe_compile::VarId],
    p1: Option<&WirProgram>,
    engines: &EngineSet,
    arena: &mut SimArena,
) -> Result<CheckStats, Divergence> {
    let mut stats = CheckStats::default();
    let want = run_wir(p0, &std::collections::BTreeMap::new()).map_err(|e| Divergence {
        kind: DivergenceKind::Invalid,
        engine: "wir".to_string(),
        detail: e.to_string(),
    })?;

    // The concrete syntax is part of the attack surface: printing and
    // re-parsing must reproduce the program exactly (the corpus format
    // and the service's source-based protocol both depend on it).
    let text = sempe_compile::to_source(p0, secrets);
    match sempe_compile::parse_wir(&text) {
        Err(e) => {
            return Err(Divergence {
                kind: DivergenceKind::Source,
                engine: "wir/to-source".to_string(),
                detail: format!("printed source does not parse: {e}"),
            })
        }
        Ok(reparsed) => {
            if reparsed.program != *p0 {
                return Err(Divergence {
                    kind: DivergenceKind::Source,
                    engine: "wir/to-source".to_string(),
                    detail: "printed source parses to a different program".to_string(),
                });
            }
            // Secrets live beside the program, not in it: a printer that
            // dropped a `secret` keyword would still reparse to an equal
            // program while silently weakening every pinned invariant.
            if reparsed.secrets != secrets {
                return Err(Divergence {
                    kind: DivergenceKind::Source,
                    engine: "wir/to-source".to_string(),
                    detail: format!(
                        "printed source declares secrets {:?}, original {:?}",
                        reparsed.secrets, secrets
                    ),
                });
            }
        }
    }

    // The nesting-collapse rewrite (§IV-E) must preserve semantics.
    let (collapsed, n_collapsed) = sempe_compile::collapse_nested_ifs(p0);
    if n_collapsed > 0 {
        let got =
            run_wir(&collapsed, &std::collections::BTreeMap::new()).map_err(|e| Divergence {
                kind: DivergenceKind::Opt,
                engine: "opt/collapse".to_string(),
                detail: format!("collapsed program faults: {e}"),
            })?;
        if got.outputs != want.outputs {
            return Err(Divergence {
                kind: DivergenceKind::Opt,
                engine: "opt/collapse".to_string(),
                detail: format!(
                    "collapsed outputs {:?} != original {:?}",
                    got.outputs, want.outputs
                ),
            });
        }
        if engines.sempe {
            let cw = compile_backend(&collapsed, Backend::Sempe)?;
            let (interp, _) = run_interp(&cw, InterpMode::SempeFunctional, "opt/sempe")?;
            stats.engine_runs += 1;
            let outputs = cw.read_outputs(interp.mem());
            if outputs != want.outputs {
                return Err(Divergence {
                    kind: DivergenceKind::Opt,
                    engine: "opt/sempe".to_string(),
                    detail: format!(
                        "collapsed sempe outputs {outputs:?} != oracle {:?}",
                        want.outputs
                    ),
                });
            }
        }
    }

    let mut plans = Vec::new();
    if engines.baseline {
        plans.push(BackendPlan {
            backend: Backend::Baseline,
            machines: vec![(InterpMode::Legacy, SimConfig::baseline())],
        });
    }
    if engines.sempe {
        plans.push(BackendPlan {
            backend: Backend::Sempe,
            machines: vec![
                // The same binary must be architecturally correct on the
                // SeMPE pipeline *and* on a legacy pipeline (the paper's
                // backward-compatibility claim).
                (InterpMode::SempeFunctional, SimConfig::paper()),
                (InterpMode::Legacy, SimConfig::baseline()),
            ],
        });
    }
    if engines.cte {
        plans.push(BackendPlan {
            backend: Backend::Cte,
            machines: vec![(InterpMode::Legacy, SimConfig::baseline())],
        });
    }

    for plan in &plans {
        let cw = compile_backend(p0, plan.backend)?;
        for (mode, config) in &plan.machines {
            let interp_name = format!("{}/interp-{mode:?}", plan.backend);
            let (interp, committed) = run_interp(&cw, *mode, &interp_name)?;
            stats.engine_runs += 1;
            compare_state(p0, &cw, interp.mem(), &want, &interp_name)?;

            let sim_name = format!("{}/sim-{}", plan.backend, config.mode.name());
            let sim = arena.run(&cw, *config, &sim_name)?;
            stats.engine_runs += 1;
            let sim_committed = sim.stats().committed;
            let sim_cycles = sim.stats().cycles;
            let sim_roi = sim.stats().roi_cycles;
            let sim_spans = sim.roi_spans().len();
            let sim_mem_ok = compare_state(p0, &cw, sim.mem(), &want, &sim_name);
            sim_mem_ok?;
            if sim_committed != committed {
                return Err(Divergence {
                    kind: DivergenceKind::Committed,
                    engine: sim_name,
                    detail: format!(
                        "pipeline committed {sim_committed} instructions, \
                         interpreter executed {committed}"
                    ),
                });
            }
            arena.fork_check(&cw, *config, &sim_name, sim_cycles, sim_committed)?;
            stats.engine_runs += 2;
            arena.skip_check(&cw, *config, &sim_name, sim_cycles, sim_committed)?;
            stats.engine_runs += 2;
            arena.tiered_check(
                p0,
                &cw,
                *config,
                &sim_name,
                &want,
                sim_committed,
                sim_roi,
                sim_spans,
            )?;
            stats.engine_runs += 1;
        }
    }

    if let Some(p1) = p1 {
        stats.leak_pairs += 1;
        if engines.sempe {
            check_leak_pair(
                p0,
                p1,
                Backend::Sempe,
                InterpMode::SempeFunctional,
                SimConfig::paper().with_trace(),
                arena,
            )?;
            stats.engine_runs += 4;
        }
        if engines.cte {
            check_leak_pair(
                p0,
                p1,
                Backend::Cte,
                InterpMode::Legacy,
                SimConfig::baseline().with_trace(),
                arena,
            )?;
            stats.engine_runs += 4;
        }
    }
    Ok(stats)
}

/// The leak invariant for one protected backend: committed counts,
/// cycle counts, and observation traces must be identical across the
/// two secret materializations.
fn check_leak_pair(
    p0: &WirProgram,
    p1: &WirProgram,
    backend: Backend,
    mode: InterpMode,
    config: SimConfig,
    arena: &mut SimArena,
) -> Result<(), Divergence> {
    let engine = format!("{backend}/leak");
    let cw0 = compile_backend(p0, backend)?;
    let cw1 = compile_backend(p1, backend)?;

    let (_, committed0) = run_interp(&cw0, mode, &engine)?;
    let (_, committed1) = run_interp(&cw1, mode, &engine)?;
    if committed0 != committed1 {
        return Err(Divergence {
            kind: DivergenceKind::LeakCommitted,
            engine,
            detail: format!(
                "committed instruction count depends on the secret: {committed0} vs {committed1}"
            ),
        });
    }

    let sim0 = arena.run(&cw0, config, &engine)?;
    let cycles0 = sim0.stats().cycles;
    let trace0 = sim0.trace().clone();
    let sim1 = arena.run(&cw1, config, &engine)?;
    let cycles1 = sim1.stats().cycles;
    if cycles0 != cycles1 {
        return Err(Divergence {
            kind: DivergenceKind::LeakCycles,
            engine,
            detail: format!("cycle count depends on the secret: {cycles0} vs {cycles1}"),
        });
    }
    if let Some(d) = first_divergence(&trace0, sim1.trace(), Strictness::Full) {
        return Err(Divergence {
            kind: DivergenceKind::LeakTrace,
            engine,
            detail: format!("observation traces diverge: {d:?}"),
        });
    }
    Ok(())
}

/// Check a generated case end to end.
///
/// # Errors
///
/// The first [`Divergence`] found.
pub fn check_case(
    case: &FuzzCase,
    engines: &EngineSet,
    arena: &mut SimArena,
) -> Result<CheckStats, Divergence> {
    let (p0, key) = case.wir(case.pair.0);
    let pair =
        if case.profile == Profile::ConstantTime { Some(case.wir(case.pair.1).0) } else { None };
    check_program(&p0, &[key], pair.as_ref(), engines, arena)
}

//! Request execution: each worker thread drives one [`Arena`] through
//! the compile → simulate → analyze stack and renders responses.
//!
//! Everything here is deterministic. Given the same request, two workers
//! produce byte-identical response bodies — the invariant the result
//! cache (and the protocol's "cache hits are indistinguishable from cold
//! runs" promise) rests on.
//!
//! Every compute op builds a **plan** of trials and hands it to one
//! executor. A trial is a compiled workload, a start (a rebuild from
//! `(program, config)` or a restore of a shared checkpoint) and the data
//! words to patch; a plan is a list of lanes, each a sequence of trials
//! on one arena slot. `run` is one rebuilt trial, `sweep` three lanes of
//! one forked trial, `attack` N forked calibration trials plus the
//! victim's, `batch` N forked trials. Only the executor checks the
//! deadline between trials, starts, patches and runs a slot, charges the
//! span and emits progress frames; the ops analyse what it hands back.
//!
//! Forked trials run on the **fork server**: one
//! [`sempe_sim::Checkpoint`] per (program, machine configuration) is
//! built on first use and shared across the worker pool through the
//! [`ForkCache`]; each trial restores it, patches the input scalars'
//! data slots and runs — no re-parse, re-compile, re-decode, or
//! simulator re-construction per trial. Restores are proven bit-for-bit
//! equal to cold runs by `crates/sim/tests/checkpoint.rs` and the
//! fuzzer's fork oracle, so the determinism invariant above holds. `run`
//! rebuilds instead: its programs are mostly unique, and a checkpoint
//! per `run` would evict the ones that repeat.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use sempe_compile::{
    analyze_taint, compile, parse_wir, CompiledWorkload, ParsedProgram, WirProgram,
};
use sempe_core::attack::{BranchProfileAttacker, TimingAttacker};
use sempe_core::hash::{fnv1a, Fnv1a};
use sempe_core::json::Json;
use sempe_core::telemetry::Span;
use sempe_core::trace::ObservationTrace;
use sempe_core::{first_divergence, Strictness};
use sempe_isa::{disasm, Addr, DecodeMode, Program};
use sempe_sim::{Checkpoint, HostProfile, SecurityMode, SimConfig, SimError, SimResult, Simulator};

use crate::cache::{CacheKey, Store};
use crate::protocol::{BackendSel, ErrorCode, ExecMode, Request, ServiceError};

/// A worker's reusable simulation arena: one simulator slot per plan
/// lane.
///
/// A slot's first trial constructs its [`Simulator`]; later trials
/// [`Simulator::rebuild`] it in place or restore a fork-server
/// checkpoint into it, recycling the hot-loop allocations instead of
/// re-growing them per request. Slot 0 serves every single-lane plan;
/// `sweep` keeps two more slots warm for its SeMPE and CTE lanes.
#[derive(Debug, Default)]
pub struct Arena {
    slots: Vec<Option<Simulator>>,
}

impl Arena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        Arena::default()
    }

    /// Drain and sum the host-time ledgers of every arena slot — the
    /// per-request attribution the worker folds into the
    /// `sim_host_us{phase=…}` histograms. Resets all slots, so the next
    /// request on this arena starts a clean ledger.
    pub fn take_host_profile(&mut self) -> HostProfile {
        let mut total = HostProfile::default();
        for sim in self.slots.iter_mut().flatten() {
            total.absorb(&sim.take_host_profile());
        }
        total
    }
}

/// The shared checkpoint store of the fork server: one immutable
/// [`Checkpoint`] per `(program content key, config digest)`, built on
/// first use and shared across the worker pool behind `Arc`s. Bounded
/// FIFO, like the result cache; two workers racing on a miss both build —
/// checkpoints are deterministic, so either insert is correct.
pub type ForkCache = Store<(u64, u64), Arc<Checkpoint>>;

impl ForkCache {
    /// Fetch the checkpoint for `(prog, config)`, building (and caching)
    /// it on a miss: construct a simulator — paying the decode and image
    /// load exactly once per (program, machine) — and checkpoint it at
    /// the quiesced post-load point.
    ///
    /// # Errors
    ///
    /// [`ServiceError`] when the image fails to decode.
    pub fn get_or_build(
        &self,
        prog: &Program,
        config: SimConfig,
    ) -> Result<Arc<Checkpoint>, ServiceError> {
        // Keyed per chunk of trials, so the key must be cheap on large
        // images: the word-at-a-time content key, not the byte-wise
        // wire digest.
        let key = (prog.content_key(), config.digest());
        if let Some(hit) = self.get(&key) {
            return Ok(hit);
        }
        let mut sim = Simulator::new(prog, config).map_err(compile_err)?;
        let cp = Arc::new(
            sim.checkpoint().map_err(|e| ServiceError::new(ErrorCode::Internal, e.to_string()))?,
        );
        self.insert(key, Arc::clone(&cp));
        Ok(cp)
    }
}

/// Where per-trial/per-lane streaming frames go on a v2 connection.
///
/// The worker owns frame transport (sequence numbering, id splicing,
/// completion-queue push); execution code only decides *what* a frame
/// says. Emission must never change the terminal response bytes — the
/// sink observes progress, it does not participate in the result.
pub struct StreamSink<'a> {
    emit: &'a mut dyn FnMut(Json),
}

impl std::fmt::Debug for StreamSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StreamSink")
    }
}

impl<'a> StreamSink<'a> {
    /// Wrap a frame-transport callback.
    pub fn new(emit: &'a mut dyn FnMut(Json)) -> StreamSink<'a> {
        StreamSink { emit }
    }

    /// Emit one progress frame body (payload members only — the
    /// transport adds `id`/`seq`/`partial`).
    pub fn frame(&mut self, body: Json) {
        (self.emit)(body);
    }
}

/// Map a simulator error to the wire: a tripped host deadline becomes
/// `E_DEADLINE` carrying the partial progress, everything else `E_SIM`.
fn sim_err(e: SimError) -> ServiceError {
    let message = e.to_string();
    match e {
        SimError::HostDeadline { cycle, committed } => {
            ServiceError::new(ErrorCode::Deadline, message)
                .with_partial(Json::obj().with("cycles", cycle).with("committed", committed))
        }
        _ => ServiceError::new(ErrorCode::Sim, message),
    }
}

fn compile_err(e: impl std::fmt::Display) -> ServiceError {
    ServiceError::new(ErrorCode::Compile, e.to_string())
}

/// `E_DEADLINE` for a budget that expired between two trials.
fn deadline_between(done: usize, total: usize, what: &str) -> ServiceError {
    ServiceError::new(
        ErrorCode::Deadline,
        format!("deadline expired after {done} of {total} {what}"),
    )
    .with_partial(Json::obj().with("items_done", done))
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

const fn backend_disc(sel: BackendSel) -> u8 {
    match sel {
        BackendSel::Baseline => 0,
        BackendSel::Sempe => 1,
        BackendSel::Cte => 2,
    }
}

const fn mode_disc(mode: SecurityMode) -> u8 {
    match mode {
        SecurityMode::Baseline => 0,
        SecurityMode::Sempe => 1,
    }
}

const fn attack_sel(mode: SecurityMode) -> BackendSel {
    match mode {
        SecurityMode::Baseline => BackendSel::Baseline,
        SecurityMode::Sempe => BackendSel::Sempe,
    }
}

/// The content-addressed cache key of a compute request (`None` for
/// `stats`/`shutdown`, which never reach the job queue).
#[must_use]
pub fn cache_key(req: &Request) -> Option<CacheKey> {
    match req {
        Request::Compile { source, backend } => Some(CacheKey {
            op: "compile",
            source_hash: fnv1a(source.as_bytes()),
            backend: backend_disc(*backend),
            mode: mode_disc(backend.mode()),
            config_digest: 0,
            params_digest: 0,
        }),
        Request::Run { source, backend, mode, max_cycles } => Some(CacheKey {
            op: "run",
            source_hash: fnv1a(source.as_bytes()),
            backend: backend_disc(*backend),
            mode: mode_disc(backend.mode()),
            // The stepping (detailed vs tiered) is a digest component,
            // so the two tiers never alias in the result cache.
            config_digest: mode.sim_config(*backend).digest(),
            params_digest: *max_cycles,
        }),
        Request::Sweep { source, max_cycles } => Some(CacheKey {
            op: "sweep",
            source_hash: fnv1a(source.as_bytes()),
            backend: u8::MAX,
            mode: u8::MAX,
            config_digest: BackendSel::ALL
                .iter()
                .fold(0, |acc, sel| acc ^ sel.sim_config().digest()),
            params_digest: *max_cycles,
        }),
        Request::Attack { source, mode, secret, secret_value, candidates, max_cycles } => {
            let mut params = Fnv1a::new();
            params.write_u64(*max_cycles);
            params.write(secret.as_deref().unwrap_or("\u{0}first").as_bytes());
            match secret_value {
                Some(v) => {
                    params.write_u64(1);
                    params.write_u64(*v);
                }
                None => params.write_u64(0),
            }
            for c in candidates {
                params.write_u64(*c);
            }
            let sel = attack_sel(*mode);
            Some(CacheKey {
                op: "attack",
                source_hash: fnv1a(source.as_bytes()),
                backend: backend_disc(sel),
                mode: mode_disc(*mode),
                config_digest: sel.sim_config().with_trace().digest(),
                params_digest: params.finish(),
            })
        }
        Request::Batch { source, backend, mode, inputs, leak_check, max_cycles } => {
            let mut params = Fnv1a::new();
            params.write_u64(*max_cycles);
            params.write_u64(u64::from(*leak_check));
            params.write_u64(inputs.len() as u64);
            for item in inputs {
                params.write_u64(item.len() as u64);
                for (name, value) in item {
                    params.write_u64(name.len() as u64);
                    params.write(name.as_bytes());
                    params.write_u64(*value);
                }
            }
            let base = mode.sim_config(*backend);
            let config = if *leak_check { base.with_trace() } else { base };
            Some(CacheKey {
                op: "batch",
                source_hash: fnv1a(source.as_bytes()),
                backend: backend_disc(*backend),
                mode: mode_disc(backend.mode()),
                config_digest: config.digest(),
                params_digest: params.finish(),
            })
        }
        Request::Stats
        | Request::Health
        | Request::Metrics { .. }
        | Request::Shutdown
        | Request::Hello { .. } => None,
    }
}

/// Execute a compute request, returning the encoded response line
/// (without trailing newline).
///
/// # Errors
///
/// [`ServiceError`] describing the failure; `stats`/`health`/`shutdown`
/// requests are rejected here because they are served inline by the
/// connection handler, never by a worker.
pub fn execute(
    req: &Request,
    arena: &mut Arena,
    forks: &ForkCache,
) -> Result<String, ServiceError> {
    execute_traced(req, arena, forks, None, &mut Span::begin())
}

/// [`execute`] under an optional host wall-clock deadline, with
/// per-phase host-time attribution. The running simulation polls the
/// deadline and bails with [`ErrorCode::Deadline`] (carrying partial
/// stats) instead of pinning the worker until the cycle budget runs
/// dry. The compile, checkpoint-restore, simulate, and encode portions
/// of the request land in `span`, keyed by the phase names documented
/// in `docs/observability.md`. The span only observes — the response
/// bytes are identical with or without it.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_traced(
    req: &Request,
    arena: &mut Arena,
    forks: &ForkCache,
    deadline: Option<Instant>,
    span: &mut Span,
) -> Result<String, ServiceError> {
    execute_streamed(req, arena, forks, deadline, span, None)
}

/// [`execute_traced`] with an optional progress-frame sink: on a v2
/// connection, `batch` emits one frame per trial and `sweep` one per
/// lane while the request is still running. With `sink == None` (every
/// legacy/v1 path) execution is byte-identical to before streaming
/// existed.
///
/// # Errors
///
/// As [`execute`].
pub fn execute_streamed(
    req: &Request,
    arena: &mut Arena,
    forks: &ForkCache,
    deadline: Option<Instant>,
    span: &mut Span,
    sink: Option<&mut StreamSink<'_>>,
) -> Result<String, ServiceError> {
    span.skip();
    let mut cx = Ctx { arena, forks, deadline, span, sink };
    let body = match req {
        Request::Compile { source, backend } => {
            let body = do_compile(source, *backend)?;
            cx.span.mark("compile");
            body
        }
        Request::Run { source, backend, mode, max_cycles } => {
            do_run(source, *backend, *mode, *max_cycles, &mut cx)?
        }
        Request::Sweep { source, max_cycles } => do_sweep(source, *max_cycles, &mut cx)?,
        Request::Attack { source, mode, secret, secret_value, candidates, max_cycles } => {
            do_attack(
                source,
                *mode,
                secret.as_deref(),
                *secret_value,
                candidates,
                *max_cycles,
                &mut cx,
            )?
        }
        Request::Batch { source, backend, mode, inputs, leak_check, max_cycles } => {
            do_batch(source, *backend, *mode, inputs, *leak_check, *max_cycles, &mut cx)?
        }
        Request::Stats
        | Request::Health
        | Request::Metrics { .. }
        | Request::Shutdown
        | Request::Hello { .. } => {
            return Err(ServiceError::new(ErrorCode::Internal, "control request reached a worker"))
        }
    };
    cx.span.skip();
    let line = body.encode();
    cx.span.mark("encode");
    Ok(line)
}

/// How a trial gets its simulator.
#[derive(Clone, Copy)]
enum Start<'a> {
    /// Rebuild from the workload's program on this machine (`compile`).
    Rebuild(&'a SimConfig),
    /// Restore a fork-server checkpoint (`checkpoint_restore`).
    Restore(&'a Checkpoint),
}

/// One simulation: a compiled workload, how its simulator starts, and
/// the data words patched in before it runs.
struct Trial<'a> {
    cw: &'a CompiledWorkload,
    start: Start<'a>,
    patches: Vec<(Addr, u64)>,
    /// The tag member of the trial's progress frame on a streaming
    /// connection, e.g. `("item", 3)`; `None` sends no frame.
    frame: Option<(&'static str, Json)>,
}

/// What a compute op asks the executor to run.
struct Plan<'a> {
    /// One sequence of trials per arena slot.
    lanes: Vec<Vec<Trial<'a>>>,
    /// The cycle budget of every trial.
    fuel: u64,
    /// What the trials count as when the deadline expires between two of
    /// them (`"batch items"`). `None` leaves the deadline to the running
    /// simulation alone, whose `E_DEADLINE` reports partial cycles.
    between: Option<&'static str>,
}

/// One request's execution context: the worker's arena, the shared fork
/// cache, the deadline, the span and the progress-frame sink.
struct Ctx<'r, 's> {
    arena: &'r mut Arena,
    forks: &'r ForkCache,
    deadline: Option<Instant>,
    span: &'r mut Span,
    sink: Option<&'r mut StreamSink<'s>>,
}

impl Ctx<'_, '_> {
    /// Code-generate `prog` for `sel`, charged to `compile`.
    fn compile(
        &mut self,
        prog: &WirProgram,
        sel: BackendSel,
    ) -> Result<CompiledWorkload, ServiceError> {
        self.span.skip();
        let cw = compile(prog, sel.backend()).map_err(compile_err)?;
        self.span.mark("compile");
        Ok(cw)
    }

    /// Code-generate `prog` for `sel` and fetch (or build) its
    /// fork-server checkpoint under `config`; the checkpoint is charged
    /// to `checkpoint_restore`.
    fn fork(
        &mut self,
        prog: &WirProgram,
        sel: BackendSel,
        config: SimConfig,
    ) -> Result<(CompiledWorkload, Arc<Checkpoint>), ServiceError> {
        let cw = self.compile(prog, sel)?;
        let cp = self.forks.get_or_build(cw.program(), config)?;
        self.span.mark("checkpoint_restore");
        Ok((cw, cp))
    }

    /// Run `plan` and return one result per trial. Trials are numbered
    /// in the order they report: round `r` runs trial `r` of every lane
    /// at once, and its lanes report in lane order. `on_trial` sees each
    /// trial's number, run facts and simulator on this thread, right
    /// after its progress frame. The first failed trial of a round fails
    /// the plan once the round is over; a lane that panics leaves its
    /// slot empty.
    fn run(
        &mut self,
        plan: Plan<'_>,
        on_trial: &mut dyn FnMut(usize, &RunData, &Simulator),
    ) -> Result<Vec<RunData>, ServiceError> {
        let Plan { lanes, fuel, between } = plan;
        let Some((main_lane, side_lanes)) = lanes.split_first() else { return Ok(Vec::new()) };
        let total = lanes.iter().map(Vec::len).sum();
        let rounds = lanes.iter().map(Vec::len).max().unwrap_or(0);
        let deadline = self.deadline;
        let slots = &mut self.arena.slots;
        slots.resize_with(slots.len().max(lanes.len()), || None);
        let mut runs = Vec::with_capacity(total);
        for round in 0..rounds {
            if let Some(what) = between.filter(|_| expired(deadline)) {
                return Err(deadline_between(runs.len(), total, what));
            }
            let mut failed = None;
            let mut panicked = Vec::new();
            let mut report =
                |trial: &Trial<'_>, outcome: Result<(RunData, &mut Simulator), _>| match outcome {
                    Ok((data, sim)) => {
                        if let (Some(sink), Some((tag, value))) =
                            (self.sink.as_deref_mut(), &trial.frame)
                        {
                            sink.frame(data.append_to(Json::obj().with(tag, value.clone())));
                        }
                        on_trial(runs.len(), &data, sim);
                        runs.push(data);
                    }
                    Err(e) => {
                        failed.get_or_insert(e);
                    }
                };
            let (main_slot, side_slots) = slots.split_at_mut(1);
            std::thread::scope(|s| {
                let side: Vec<_> = side_lanes
                    .iter()
                    .zip(side_slots.iter_mut())
                    .enumerate()
                    .filter_map(|(i, (lane, slot))| {
                        let trial = lane.get(round)?;
                        let handle = s.spawn(move || {
                            run_trial(slot, trial, fuel, deadline, &mut Span::begin())
                        });
                        Some((i + 1, trial, handle))
                    })
                    .collect();
                if let Some(trial) = main_lane.get(round) {
                    report(trial, run_trial(&mut main_slot[0], trial, fuel, deadline, self.span));
                }
                // Time spent waiting on the other lanes is simulation.
                self.span.skip();
                for (lane, trial, handle) in side {
                    let outcome = handle.join().unwrap_or_else(|_| {
                        panicked.push(lane);
                        Err(ServiceError::new(ErrorCode::Internal, "trial lane panicked"))
                    });
                    self.span.mark("simulate");
                    report(trial, outcome);
                }
            });
            for lane in panicked {
                slots[lane] = None;
            }
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(runs)
    }
}

/// Start `slot` as `trial` says (hydrating it on first use), patch it,
/// run it and collect the run facts, charging the span.
fn run_trial<'s>(
    slot: &'s mut Option<Simulator>,
    trial: &Trial<'_>,
    fuel: u64,
    deadline: Option<Instant>,
    span: &mut Span,
) -> Result<(RunData, &'s mut Simulator), ServiceError> {
    let started = Instant::now();
    let (sim, phase) = match trial.start {
        Start::Rebuild(config) => (
            Simulator::rebuild_or_new(slot, trial.cw.program(), *config).map_err(compile_err)?,
            "compile",
        ),
        Start::Restore(cp) => (Simulator::restore_or_new(slot, cp), "checkpoint_restore"),
    };
    for &(addr, value) in &trial.patches {
        sim.mem_mut().write_u64(addr, value);
    }
    span.add(phase, started.elapsed());
    let started = Instant::now();
    let res = sim.run_with_deadline(fuel, deadline).map_err(sim_err);
    span.add("simulate", started.elapsed());
    let data = RunData::new(&res?, trial.cw.read_outputs(sim.mem()));
    Ok((data, sim))
}

fn parse_source(source: &str) -> Result<ParsedProgram, ServiceError> {
    parse_wir(source).map_err(|e| ServiceError::new(ErrorCode::Wir, e.to_string()))
}

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

fn do_compile(source: &str, sel: BackendSel) -> Result<Json, ServiceError> {
    let parsed = parse_source(source)?;
    let taint = analyze_taint(&parsed.program, &parsed.secrets);
    let cw = compile(&parsed.program, sel.backend()).map_err(compile_err)?;
    let decode_mode = match sel {
        BackendSel::Sempe => DecodeMode::Sempe,
        BackendSel::Baseline | BackendSel::Cte => DecodeMode::Legacy,
    };
    let decoded = cw.program().decoded(decode_mode).map_err(compile_err)?;
    let listing = disasm::listing(cw.program(), decode_mode).map_err(compile_err)?;
    let secret_names: Vec<Json> =
        parsed.secrets.iter().map(|v| Json::from(parsed.program.var_name(*v))).collect();
    Ok(Json::obj()
        .with("ok", true)
        .with("type", "compile")
        .with("backend", sel.name())
        .with("insns", decoded.len())
        .with("code_bytes", cw.program().code_len())
        .with("code_digest", hex(cw.program().digest()))
        .with("source_hash", hex(fnv1a(source.as_bytes())))
        .with("taint_clean", taint.is_clean())
        .with("secrets", Json::Arr(secret_names))
        .with("disasm", listing))
}

/// The measured facts of one simulation, shared by every op.
struct RunData {
    cycles: u64,
    committed: u64,
    ff_committed: u64,
    secure_committed: u64,
    squashes: u64,
    drain_stall_cycles: u64,
    ipc: f64,
    outputs: Vec<u64>,
}

impl RunData {
    /// The reported facts of one finished run and its outputs.
    fn new(res: &SimResult, outputs: Vec<u64>) -> Self {
        let stats = res.stats;
        RunData {
            cycles: res.cycles(),
            committed: res.committed(),
            ff_committed: stats.ff_committed,
            secure_committed: stats.secure_committed,
            squashes: stats.squashes,
            drain_stall_cycles: stats.drain_stall_cycles,
            ipc: (stats.ipc() * 1e6).round() / 1e6,
            outputs,
        }
    }

    /// `obj` followed by the run facts, in the order every response
    /// and progress frame lists them.
    fn append_to(&self, obj: Json) -> Json {
        obj.with("cycles", self.cycles)
            .with("committed", self.committed)
            .with("ff_committed", self.ff_committed)
            .with("ipc", self.ipc)
            .with("secure_committed", self.secure_committed)
            .with("squashes", self.squashes)
            .with("drain_stall_cycles", self.drain_stall_cycles)
            .with("outputs", self.outputs.clone())
    }

    fn to_json(&self) -> Json {
        self.append_to(Json::obj())
    }
}

fn do_run(
    source: &str,
    sel: BackendSel,
    mode: ExecMode,
    fuel: u64,
    cx: &mut Ctx<'_, '_>,
) -> Result<Json, ServiceError> {
    let parsed = parse_source(source)?;
    let cw = cx.compile(&parsed.program, sel)?;
    let config = mode.sim_config(sel);
    let trial = Trial { cw: &cw, start: Start::Rebuild(&config), patches: vec![], frame: None };
    let runs = cx.run(Plan { lanes: vec![vec![trial]], fuel, between: None }, &mut |_, _, _| {})?;
    let head = Json::obj()
        .with("ok", true)
        .with("type", "run")
        .with("backend", sel.name())
        .with("mode", mode.name());
    Ok(runs[0]
        .append_to(head)
        .with("source_hash", hex(fnv1a(source.as_bytes())))
        .with("config_digest", hex(config.digest())))
}

#[allow(clippy::cast_precision_loss)]
fn do_sweep(source: &str, fuel: u64, cx: &mut Ctx<'_, '_>) -> Result<Json, ServiceError> {
    let parsed = parse_source(source)?;
    let forked: Vec<_> = BackendSel::ALL
        .iter()
        .map(|&sel| cx.fork(&parsed.program, sel, sel.sim_config()))
        .collect::<Result<_, _>>()?;
    // One lane per backend: the three combinations run concurrently.
    let lanes = BackendSel::ALL
        .iter()
        .zip(&forked)
        .map(|(sel, (cw, cp))| {
            let frame = Some(("lane", Json::from(sel.name())));
            vec![Trial { cw, start: Start::Restore(cp), patches: vec![], frame }]
        })
        .collect();
    let runs = cx.run(Plan { lanes, fuel, between: None }, &mut |_, _, _| {})?;
    let [baseline, sempe, cte] = runs.as_slice() else { unreachable!("one run per lane") };
    let outputs_match = baseline.outputs == sempe.outputs && baseline.outputs == cte.outputs;
    let ratio = |r: &RunData| (r.cycles as f64 / baseline.cycles.max(1) as f64 * 1e6).round() / 1e6;
    Ok(Json::obj()
        .with("ok", true)
        .with("type", "sweep")
        .with(
            "runs",
            Json::obj()
                .with("baseline", baseline.to_json())
                .with("sempe", sempe.to_json())
                .with("cte", cte.to_json()),
        )
        .with("overhead", Json::obj().with("sempe", ratio(sempe)).with("cte", ratio(cte)))
        .with("outputs_match", outputs_match)
        .with("source_hash", hex(fnv1a(source.as_bytes()))))
}

type BranchHistogram = BTreeMap<Addr, (u64, u64)>;

fn do_attack(
    source: &str,
    mode: SecurityMode,
    secret: Option<&str>,
    secret_value: Option<u64>,
    candidates: &[u64],
    fuel: u64,
    cx: &mut Ctx<'_, '_>,
) -> Result<Json, ServiceError> {
    let parsed = parse_source(source)?;
    let vid = match secret {
        Some(name) => parsed.program.find_var(name).ok_or_else(|| {
            ServiceError::new(ErrorCode::BadRequest, format!("unknown variable `{name}`"))
        })?,
        None => *parsed.secrets.first().ok_or_else(|| {
            ServiceError::new(ErrorCode::BadRequest, "program declares no secret variable")
        })?,
    };
    if !parsed.secrets.contains(&vid) {
        return Err(ServiceError::new(
            ErrorCode::BadRequest,
            format!("variable `{}` is not declared secret", parsed.program.var_name(vid)),
        ));
    }
    let victim_secret = secret_value.unwrap_or_else(|| parsed.program.var_init(vid));
    let sel = attack_sel(mode);

    // The attacker's calibration phase: run the known code under every
    // candidate secret on its own (identical) machine. One compile + one
    // checkpoint; per candidate the fork server restores the checkpoint
    // and patches the secret's data slot — identical, bit for bit, to a
    // cold build with that initializer, without the per-trial setup.
    let (cw, cp) = cx.fork(&parsed.program, sel, sel.sim_config().with_trace())?;
    let secret_addr = cw.var_addr(vid);
    let trial = |value: u64| Trial {
        cw: &cw,
        start: Start::Restore(&cp),
        patches: vec![(secret_addr, value)],
        frame: None,
    };
    let calibration = Plan {
        lanes: vec![candidates.iter().map(|&c| trial(c)).collect()],
        fuel,
        between: Some("calibration runs"),
    };
    let mut traces = Vec::with_capacity(candidates.len());
    let runs = cx.run(calibration, &mut |_, _, sim| traces.push(sim.trace().clone()))?;
    let calib: Vec<(u64, u64, ObservationTrace)> =
        candidates.iter().zip(&runs).zip(traces).map(|((&c, run), t)| (c, run.cycles, t)).collect();
    // The victim's run (reused when the true secret is also a candidate).
    let victim_trace = match calib.iter().find(|(c, _, _)| *c == victim_secret) {
        Some((_, _, t)) => t.clone(),
        None => {
            let victim = Plan { lanes: vec![vec![trial(victim_secret)]], fuel, between: None };
            let mut trace = ObservationTrace::new();
            cx.run(victim, &mut |_, _, sim| trace = sim.trace().clone())?;
            trace
        }
    };

    // Timing attacker (Brumley–Boneh style).
    let mut timing = TimingAttacker::new();
    for (c, _, trace) in &calib {
        timing.calibrate(c.to_string(), trace);
    }
    let timing_guess = timing.classify(&victim_trace).map(str::to_string);
    let timing_recovered = timing_guess.as_deref() == Some(victim_secret.to_string().as_str());

    // Branch-profile attacker (Acıiçmez style): a branch leaks when its
    // predictor-update histogram depends on the candidate secret.
    let histograms: Vec<BranchHistogram> =
        calib.iter().map(|(_, _, t)| BranchProfileAttacker::update_histogram(t)).collect();
    let all_pcs: BTreeSet<Addr> = histograms.iter().flat_map(|h| h.keys().copied()).collect();
    let leaking: Vec<Addr> = all_pcs
        .into_iter()
        .filter(|pc| {
            let views: Vec<(u64, u64)> =
                histograms.iter().map(|h| h.get(pc).copied().unwrap_or((0, 0))).collect();
            views.iter().any(|v| *v != views[0])
        })
        .collect();
    let victim_hist = BranchProfileAttacker::update_histogram(&victim_trace);
    let branch_matches: Vec<u64> = calib
        .iter()
        .zip(&histograms)
        .filter(|(_, h)| **h == victim_hist)
        .map(|((c, _, _), _)| *c)
        .collect();
    let branch_guess = match branch_matches.as_slice() {
        [only] => Some(*only),
        _ => None,
    };
    let branch_recovered = !leaking.is_empty() && branch_guess == Some(victim_secret);
    let recovered_key =
        leaking.first().map(|pc| BranchProfileAttacker::recover_key(&victim_trace, *pc));

    // Whole-trace distinguishability under the full threat model.
    let mut divergent_pairs = 0u64;
    for i in 0..calib.len() {
        for j in (i + 1)..calib.len() {
            if first_divergence(&calib[i].2, &calib[j].2, Strictness::Full).is_some() {
                divergent_pairs += 1;
            }
        }
    }

    let opt_u64 = |v: Option<u64>| v.map_or(Json::Null, Json::U64);
    Ok(Json::obj()
        .with("ok", true)
        .with("type", "attack")
        .with("mode", mode.name())
        .with("secret", parsed.program.var_name(vid))
        .with("secret_value", victim_secret)
        .with("candidates", candidates.to_vec())
        .with("cycles", calib.iter().map(|(_, c, _)| *c).collect::<Vec<u64>>())
        .with(
            "timing",
            Json::obj()
                .with("can_distinguish", timing.can_distinguish())
                .with("guess", timing_guess.map_or(Json::Null, Json::Str))
                .with("recovered", timing_recovered),
        )
        .with(
            "branch",
            Json::obj()
                .with("leaking_branches", leaking.len())
                .with("guess", opt_u64(branch_guess))
                .with("recovered", branch_recovered)
                .with("recovered_key", opt_u64(recovered_key)),
        )
        .with(
            "trace",
            Json::obj().with("events", victim_trace.len()).with("divergent_pairs", divergent_pairs),
        )
        .with("source_hash", hex(fnv1a(source.as_bytes()))))
}

/// The `batch` op: one program, N input vectors, one shared checkpoint.
/// Items run in request order; the response carries one result object
/// per item (a stream in arrival order) plus, under `leak_check`, the
/// per-pair leak verdicts.
fn do_batch(
    source: &str,
    sel: BackendSel,
    mode: ExecMode,
    inputs: &[Vec<(String, u64)>],
    leak_check: bool,
    fuel: u64,
    cx: &mut Ctx<'_, '_>,
) -> Result<Json, ServiceError> {
    let parsed = parse_source(source)?;
    // The stepping rides in the config, so tiered trials share one
    // checkpoint keyed apart from the detailed one; each restored trial
    // then fast-forwards functionally to the first region of interest.
    let base = mode.sim_config(sel);
    let config = if leak_check { base.with_trace() } else { base };
    let (cw, cp) = cx.fork(&parsed.program, sel, config)?;

    // Resolve every named variable once, before any simulation runs.
    let mut trials = Vec::with_capacity(inputs.len());
    for (idx, item) in inputs.iter().enumerate() {
        let mut patches = Vec::with_capacity(item.len());
        for (name, value) in item {
            let vid = parsed.program.find_var(name).ok_or_else(|| {
                ServiceError::new(ErrorCode::BadRequest, format!("unknown variable `{name}`"))
            })?;
            patches.push((cw.var_addr(vid), *value));
        }
        let frame = Some(("item", Json::U64(idx as u64)));
        trials.push(Trial { cw: &cw, start: Start::Restore(&cp), patches, frame });
    }

    // Each leak pair is judged as soon as its second item finishes, so
    // at most one trace (the pending even item's) is retained at a time
    // instead of all N.
    let mut pairs: Vec<Json> = Vec::with_capacity(inputs.len() / 2);
    let mut all_clear = true;
    let mut pending: Option<(u64, u64, ObservationTrace)> = None;
    let mut judge = |idx: usize, data: &RunData, sim: &Simulator| {
        if !leak_check {
            return;
        }
        match pending.take() {
            None => pending = Some((data.cycles, data.committed, sim.trace().clone())),
            Some((cycles, committed, first)) => {
                let cycles_equal = cycles == data.cycles;
                let committed_equal = committed == data.committed;
                let trace_identical =
                    first_divergence(&first, sim.trace(), Strictness::Full).is_none();
                let clear = cycles_equal && committed_equal && trace_identical;
                all_clear &= clear;
                pairs.push(
                    Json::obj()
                        .with("items", vec![idx as u64 - 1, idx as u64])
                        .with("cycles_equal", cycles_equal)
                        .with("committed_equal", committed_equal)
                        .with("trace_identical", trace_identical)
                        .with("clear", clear),
                );
            }
        }
    };
    let plan = Plan { lanes: vec![trials], fuel, between: Some("batch items") };
    let results = cx.run(plan, &mut judge)?;

    let mut body = Json::obj()
        .with("ok", true)
        .with("type", "batch")
        .with("backend", sel.name())
        .with("mode", mode.name())
        .with("items", inputs.len())
        .with("results", Json::Arr(results.iter().map(RunData::to_json).collect()));
    if leak_check {
        body = body
            .with("leak", Json::obj().with("pairs", Json::Arr(pairs)).with("all_clear", all_clear));
    }
    Ok(body
        .with("source_hash", hex(fnv1a(source.as_bytes())))
        .with("config_digest", hex(config.digest())))
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn attack_req(mode: &str) -> Request {
        Request::parse(&format!(
            r#"{{"type":"attack","source":{},"mode":"{mode}","candidates":[11,2],"max_cycles":50000000}}"#,
            sempe_core::json::escape(MODEXP)
        ))
        .unwrap()
    }

    #[test]
    fn compile_reports_metadata_and_disassembly() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let req = Request::Compile { source: MODEXP.to_string(), backend: BackendSel::Sempe };
        let body = execute(&req, &mut arena, &forks).unwrap();
        let v = sempe_core::json::parse(&body).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("taint_clean").and_then(Json::as_bool), Some(true));
        assert!(v.get("insns").and_then(Json::as_u64).unwrap() > 10);
        assert!(v.get("disasm").and_then(Json::as_str).unwrap().contains("eosjmp"));
    }

    #[test]
    fn run_and_sweep_agree_on_outputs() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let run = Request::Run {
            source: MODEXP.to_string(),
            backend: BackendSel::Baseline,
            mode: ExecMode::Detailed,
            max_cycles: 50_000_000,
        };
        let run_v = sempe_core::json::parse(&execute(&run, &mut arena, &forks).unwrap()).unwrap();
        let want = 7u64.pow(0b1011) % 1_000_003;
        let outputs = run_v.get("outputs").and_then(Json::as_array).unwrap();
        assert_eq!(outputs[0].as_u64(), Some(want));

        let sweep = Request::Sweep { source: MODEXP.to_string(), max_cycles: 50_000_000 };
        let sweep_v =
            sempe_core::json::parse(&execute(&sweep, &mut arena, &forks).unwrap()).unwrap();
        assert_eq!(sweep_v.get("outputs_match").and_then(Json::as_bool), Some(true));
        let overhead = sweep_v.get("overhead").unwrap();
        assert!(overhead.get("sempe").and_then(Json::as_f64).unwrap() > 1.0);
    }

    #[test]
    fn attack_recovers_on_baseline_and_is_blind_on_sempe() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let base =
            sempe_core::json::parse(&execute(&attack_req("baseline"), &mut arena, &forks).unwrap())
                .unwrap();
        let t = base.get("timing").unwrap();
        assert_eq!(t.get("can_distinguish").and_then(Json::as_bool), Some(true));
        assert_eq!(t.get("recovered").and_then(Json::as_bool), Some(true));
        let b = base.get("branch").unwrap();
        assert!(b.get("leaking_branches").and_then(Json::as_u64).unwrap() >= 1);
        assert_eq!(b.get("recovered_key").and_then(Json::as_u64), Some(0b1011));

        let sempe =
            sempe_core::json::parse(&execute(&attack_req("sempe"), &mut arena, &forks).unwrap())
                .unwrap();
        let t = sempe.get("timing").unwrap();
        assert_eq!(t.get("can_distinguish").and_then(Json::as_bool), Some(false));
        assert_eq!(t.get("recovered").and_then(Json::as_bool), Some(false));
        let b = sempe.get("branch").unwrap();
        assert_eq!(b.get("leaking_branches").and_then(Json::as_u64), Some(0));
        assert_eq!(b.get("recovered").and_then(Json::as_bool), Some(false));
        assert_eq!(
            sempe.get("trace").unwrap().get("divergent_pairs").and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn execution_is_deterministic_across_arenas() {
        let req = Request::Run {
            source: MODEXP.to_string(),
            backend: BackendSel::Sempe,
            mode: ExecMode::Detailed,
            max_cycles: 50_000_000,
        };
        let mut a = Arena::new();
        let mut b = Arena::new();
        let forks = ForkCache::new(8);
        // Dirty arena `b` with unrelated work first.
        let _ = execute(&attack_req("baseline"), &mut b, &forks).unwrap();
        assert_eq!(execute(&req, &mut a, &forks).unwrap(), execute(&req, &mut b, &forks).unwrap());
    }

    fn run_req(backend: BackendSel, mode: ExecMode) -> Request {
        Request::Run { source: MODEXP.to_string(), backend, mode, max_cycles: 50_000_000 }
    }

    #[test]
    fn run_rebuilds_without_touching_the_fork_cache() {
        // `run` programs are mostly unique: a checkpoint per run would
        // only evict the checkpoints that `batch` and `attack` reuse.
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        for mode in [ExecMode::Detailed, ExecMode::Tiered] {
            execute(&run_req(BackendSel::Sempe, mode), &mut arena, &forks).unwrap();
        }
        assert!(forks.is_empty());
        assert_eq!(forks.hits() + forks.misses(), 0);
    }

    #[test]
    fn tiered_run_matches_detailed_architecturally_and_keys_apart() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let detailed = sempe_core::json::parse(
            &execute(&run_req(BackendSel::Sempe, ExecMode::Detailed), &mut arena, &forks).unwrap(),
        )
        .unwrap();
        let tiered = sempe_core::json::parse(
            &execute(&run_req(BackendSel::Sempe, ExecMode::Tiered), &mut arena, &forks).unwrap(),
        )
        .unwrap();
        assert_eq!(tiered.get("mode").and_then(Json::as_str), Some("tiered"));
        assert_eq!(detailed.get("mode").and_then(Json::as_str), Some("detailed"));
        // Fast-forwarding is architecturally invisible…
        assert_eq!(tiered.get("outputs"), detailed.get("outputs"));
        assert_eq!(tiered.get("committed"), detailed.get("committed"));
        // …but attributed: the public modexp loop fast-forwards.
        assert!(tiered.get("ff_committed").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(detailed.get("ff_committed").and_then(Json::as_u64), Some(0));
        // And the two tiers can never alias in the result cache.
        assert_ne!(
            cache_key(&run_req(BackendSel::Sempe, ExecMode::Tiered)).unwrap(),
            cache_key(&run_req(BackendSel::Sempe, ExecMode::Detailed)).unwrap()
        );
    }

    #[test]
    fn tiered_then_detailed_in_one_arena_matches_a_cold_run() {
        // The arena-reuse regression: a tiered run leaves warm caches,
        // predictors, and FF bookkeeping in the worker's simulator; the
        // next request's rebuild must reset all of it, or a recycled
        // arena answers differently than a fresh worker (breaking the
        // byte-identical determinism the result cache rests on).
        let forks = ForkCache::new(8);
        for (first, then) in
            [(ExecMode::Tiered, ExecMode::Detailed), (ExecMode::Detailed, ExecMode::Tiered)]
        {
            let mut recycled = Arena::new();
            let _ = execute(&run_req(BackendSel::Sempe, first), &mut recycled, &forks).unwrap();
            let warm = execute(&run_req(BackendSel::Sempe, then), &mut recycled, &forks).unwrap();
            let cold =
                execute(&run_req(BackendSel::Sempe, then), &mut Arena::new(), &forks).unwrap();
            assert_eq!(warm, cold, "{first:?} then {then:?}: recycled arena must answer cold");
        }
    }

    #[test]
    fn tiered_batch_keys_its_own_checkpoint_and_matches_detailed_outputs() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let keys = [0u64, 15];
        let req = |mode| Request::Batch {
            source: MODEXP.to_string(),
            backend: BackendSel::Sempe,
            mode,
            inputs: keys.iter().map(|k| vec![("key".to_string(), *k)]).collect(),
            leak_check: false,
            max_cycles: 50_000_000,
        };
        let detailed = sempe_core::json::parse(
            &execute(&req(ExecMode::Detailed), &mut arena, &forks).unwrap(),
        )
        .unwrap();
        let tiered =
            sempe_core::json::parse(&execute(&req(ExecMode::Tiered), &mut arena, &forks).unwrap())
                .unwrap();
        let items = |v: &Json| v.get("results").and_then(Json::as_array).unwrap().to_vec();
        for (d, t) in items(&detailed).iter().zip(items(&tiered).iter()) {
            assert_eq!(d.get("outputs"), t.get("outputs"));
            assert_eq!(d.get("committed"), t.get("committed"));
            assert!(t.get("ff_committed").and_then(Json::as_u64).unwrap() > 0);
        }
        // One checkpoint per (program, config) — the stepping is part of
        // the config digest, so the two modes built separate ones.
        assert_eq!(forks.len(), 2);
    }

    #[test]
    fn cache_keys_separate_requests() {
        let run = |backend| Request::Run {
            source: MODEXP.to_string(),
            backend,
            mode: ExecMode::Detailed,
            max_cycles: 1000,
        };
        let k1 = cache_key(&run(BackendSel::Sempe)).unwrap();
        let k2 = cache_key(&run(BackendSel::Baseline)).unwrap();
        let k3 = cache_key(&run(BackendSel::Cte)).unwrap();
        assert_ne!(k1, k2);
        assert_ne!(k2, k3, "cte and baseline share a machine but not a backend");
        assert_eq!(k1, cache_key(&run(BackendSel::Sempe)).unwrap());
        assert!(cache_key(&Request::Stats).is_none());
        assert!(cache_key(&Request::Shutdown).is_none());
    }

    #[test]
    fn cache_keys_distinguish_beyond_float_precision() {
        // Program/config digests and attack candidates are full-width
        // u64s; two requests that differ only above 2^53 must hash to
        // different cache keys (a float-precision JSON layer would have
        // collapsed them into silent cache aliasing).
        let req = |c: u64| Request::Attack {
            source: MODEXP.to_string(),
            mode: SecurityMode::Baseline,
            secret: None,
            secret_value: None,
            candidates: vec![0, c],
            max_cycles: 1000,
        };
        let a = cache_key(&req((1 << 53) + 1)).unwrap();
        let b = cache_key(&req(1 << 53)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn expired_deadline_yields_e_deadline_with_partial_stats() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        // Long-running loop: the run-loop's deadline poll must trip long
        // before the cycle budget is spent.
        let source = r"
            var i = 0;
            while (i < 1000000) bound 1000001 { i = i + 1; }
            output i;
        ";
        let req = Request::Run {
            source: source.to_string(),
            backend: BackendSel::Baseline,
            mode: ExecMode::Detailed,
            max_cycles: 100_000_000,
        };
        let start = Instant::now();
        let err =
            execute_traced(&req, &mut arena, &forks, Some(Instant::now()), &mut Span::begin())
                .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        assert!(start.elapsed() < std::time::Duration::from_secs(30), "deadline must cut the run");
        let partial = err.partial.expect("deadline errors carry partial progress");
        assert!(partial.get("cycles").and_then(Json::as_u64).is_some());

        // A batch whose budget is already gone fails between items, with
        // the item count it managed.
        let req = batch_req(BackendSel::Baseline, &[1, 2], false);
        let err =
            execute_traced(&req, &mut arena, &forks, Some(Instant::now()), &mut Span::begin())
                .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        assert_eq!(
            err.partial.unwrap().get("items_done").and_then(Json::as_u64),
            Some(0),
            "nothing ran before the expired budget was noticed"
        );

        // Attack calibration stops between runs the same way.
        let err = execute_traced(
            &attack_req("baseline"),
            &mut arena,
            &forks,
            Some(Instant::now()),
            &mut Span::begin(),
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        assert_eq!(err.partial.unwrap().get("items_done").and_then(Json::as_u64), Some(0));

        // A sweep's lanes are cut mid-simulation and report cycles.
        let req = Request::Sweep { source: source.to_string(), max_cycles: 100_000_000 };
        let err =
            execute_traced(&req, &mut arena, &forks, Some(Instant::now()), &mut Span::begin())
                .unwrap_err();
        assert_eq!(err.code, ErrorCode::Deadline);
        let partial = err.partial.expect("deadline errors carry partial progress");
        assert!(partial.get("cycles").and_then(Json::as_u64).is_some(), "{partial:?}");

        // A generous deadline changes nothing: byte-identical to no
        // deadline at all (the cache invariant).
        let req = Request::Run {
            source: MODEXP.to_string(),
            backend: BackendSel::Baseline,
            mode: ExecMode::Detailed,
            max_cycles: 50_000_000,
        };
        let relaxed = Instant::now() + std::time::Duration::from_secs(600);
        assert_eq!(
            execute_traced(&req, &mut arena, &forks, Some(relaxed), &mut Span::begin()).unwrap(),
            execute(&req, &mut arena, &forks).unwrap()
        );
    }

    #[test]
    fn wir_errors_surface_with_the_right_code() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let req = Request::Compile { source: "var x = @;".into(), backend: BackendSel::Sempe };
        let err = execute(&req, &mut arena, &forks).unwrap_err();
        assert_eq!(err.code, ErrorCode::Wir);
        let req = Request::Attack {
            source: "var x = 0; output x;".into(),
            mode: SecurityMode::Baseline,
            secret: None,
            secret_value: None,
            candidates: vec![0, 1],
            max_cycles: 1000,
        };
        assert_eq!(execute(&req, &mut arena, &forks).unwrap_err().code, ErrorCode::BadRequest);
    }

    fn batch_req(backend: BackendSel, keys: &[u64], leak_check: bool) -> Request {
        Request::Batch {
            source: MODEXP.to_string(),
            backend,
            mode: ExecMode::Detailed,
            inputs: keys.iter().map(|k| vec![("key".to_string(), *k)]).collect(),
            leak_check,
            max_cycles: 50_000_000,
        }
    }

    #[test]
    fn batch_results_match_individual_runs() {
        // Each forked batch item must equal a cold `run` of the program
        // with that secret initializer — same cycles, same outputs.
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let keys = [0u64, 3, 0b1011];
        let v = sempe_core::json::parse(
            &execute(&batch_req(BackendSel::Baseline, &keys, false), &mut arena, &forks).unwrap(),
        )
        .unwrap();
        assert_eq!(v.get("items").and_then(Json::as_u64), Some(3));
        let results = v.get("results").and_then(Json::as_array).unwrap();
        for (key, item) in keys.iter().zip(results) {
            let patched = MODEXP.replace("0b1011", &key.to_string());
            let run = Request::Run {
                source: patched,
                backend: BackendSel::Baseline,
                mode: ExecMode::Detailed,
                max_cycles: 50_000_000,
            };
            let run_v =
                sempe_core::json::parse(&execute(&run, &mut arena, &forks).unwrap()).unwrap();
            assert_eq!(
                item.get("cycles").and_then(Json::as_u64),
                run_v.get("cycles").and_then(Json::as_u64),
                "key {key}: forked cycles must equal a cold run"
            );
            assert_eq!(
                item.get("outputs").and_then(Json::as_array),
                run_v.get("outputs").and_then(Json::as_array),
                "key {key}: forked outputs must equal a cold run"
            );
        }
        let forked = forks.hits() + forks.misses();
        assert!(forked >= 1, "batch must go through the fork cache");
    }

    #[test]
    fn batch_leak_check_flags_baseline_and_clears_sempe() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        // 0 and 15 take maximally different secret paths.
        let keys = [0u64, 15];
        let base = sempe_core::json::parse(
            &execute(&batch_req(BackendSel::Baseline, &keys, true), &mut arena, &forks).unwrap(),
        )
        .unwrap();
        let leak = base.get("leak").unwrap();
        assert_eq!(leak.get("all_clear").and_then(Json::as_bool), Some(false));

        let sempe = sempe_core::json::parse(
            &execute(&batch_req(BackendSel::Sempe, &keys, true), &mut arena, &forks).unwrap(),
        )
        .unwrap();
        let leak = sempe.get("leak").unwrap();
        assert_eq!(leak.get("all_clear").and_then(Json::as_bool), Some(true));
        let pairs = leak.get("pairs").and_then(Json::as_array).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].get("cycles_equal").and_then(Json::as_bool), Some(true));
        assert_eq!(pairs[0].get("trace_identical").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn batch_streams_one_frame_per_item_without_changing_the_response() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let req = batch_req(BackendSel::Baseline, &[1, 2, 3], false);
        let plain = execute(&req, &mut arena, &forks).unwrap();
        let mut frames: Vec<String> = Vec::new();
        let mut emit = |j: Json| frames.push(j.encode());
        let mut sink = StreamSink::new(&mut emit);
        let streamed =
            execute_streamed(&req, &mut arena, &forks, None, &mut Span::begin(), Some(&mut sink))
                .unwrap();
        assert_eq!(plain, streamed, "the sink must not perturb the terminal response");
        assert_eq!(frames.len(), 3, "one frame per batch item: {frames:?}");
        assert!(frames[0].starts_with(r#"{"item":0,"cycles":"#), "{}", frames[0]);
        assert!(frames[2].starts_with(r#"{"item":2,"cycles":"#), "{}", frames[2]);
    }

    #[test]
    fn sweep_streams_one_frame_per_lane() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let req = Request::Sweep { source: MODEXP.to_string(), max_cycles: 50_000_000 };
        let plain = execute(&req, &mut arena, &forks).unwrap();
        let mut frames: Vec<String> = Vec::new();
        let mut emit = |j: Json| frames.push(j.encode());
        let mut sink = StreamSink::new(&mut emit);
        let streamed =
            execute_streamed(&req, &mut arena, &forks, None, &mut Span::begin(), Some(&mut sink))
                .unwrap();
        assert_eq!(plain, streamed);
        let lanes: Vec<&str> = frames
            .iter()
            .map(|f| {
                if f.starts_with(r#"{"lane":"baseline""#) {
                    "baseline"
                } else if f.starts_with(r#"{"lane":"sempe""#) {
                    "sempe"
                } else {
                    "cte"
                }
            })
            .collect();
        assert_eq!(lanes, vec!["baseline", "sempe", "cte"]);
    }

    #[test]
    fn batch_rejects_unknown_variables() {
        let mut arena = Arena::new();
        let forks = ForkCache::new(8);
        let req = Request::Batch {
            source: MODEXP.to_string(),
            backend: BackendSel::Baseline,
            mode: ExecMode::Detailed,
            inputs: vec![vec![("nope".to_string(), 1)]],
            leak_check: false,
            max_cycles: 1000,
        };
        assert_eq!(execute(&req, &mut arena, &forks).unwrap_err().code, ErrorCode::BadRequest);
    }

    #[test]
    fn batch_cache_keys_separate_inputs_and_flags() {
        let k = |keys: &[u64], leak| cache_key(&batch_req(BackendSel::Sempe, keys, leak)).unwrap();
        assert_eq!(k(&[1, 2], false), k(&[1, 2], false));
        assert_ne!(k(&[1, 2], false), k(&[2, 1], false), "input order is significant");
        assert_ne!(k(&[1, 2], false), k(&[1, 2], true), "leak_check changes the machine");
        assert_ne!(
            cache_key(&batch_req(BackendSel::Sempe, &[1], false)).unwrap(),
            cache_key(&batch_req(BackendSel::Baseline, &[1], false)).unwrap()
        );
    }

    #[test]
    fn attack_sweep_batch_cache_hits_are_byte_identical() {
        // The full worker path: compute once, cache the body, then serve
        // the same request from the cache — the hit must be the exact
        // bytes a cold execution produces, for every fork-server op.
        let cache = crate::cache::ResultCache::new(16);
        let forks = ForkCache::new(8);
        let requests = [
            attack_req("baseline"),
            Request::Sweep { source: MODEXP.to_string(), max_cycles: 50_000_000 },
            batch_req(BackendSel::Sempe, &[0, 15], true),
        ];
        for req in &requests {
            let key = cache_key(req).expect("compute requests have keys");
            let mut warm = Arena::new();
            let cold_body = execute(req, &mut warm, &forks).unwrap();
            cache.insert(key, std::sync::Arc::from(cold_body.as_str()));
            // A different worker (fresh arena, shared caches) recomputes
            // byte-identically, so hit and cold are indistinguishable.
            let mut other = Arena::new();
            let recomputed = execute(req, &mut other, &forks).unwrap();
            let hit = cache.get(&key).expect("inserted above");
            assert_eq!(&*hit, cold_body.as_str());
            assert_eq!(recomputed, cold_body);
        }
    }
}

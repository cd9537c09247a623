//! The cycle-level out-of-order pipeline.
//!
//! Stage order within a cycle is reverse (commit first, fetch last) so
//! that values flow with realistic latencies: an op completing in cycle
//! *C* wakes dependents that may issue in *C* and commit no earlier than
//! *C+1*.
//!
//! SeMPE integration points (paper §IV-E/F, Figure 6):
//!
//! * **fetch** — sJMP always falls through (not-taken path first) and
//!   never touches the predictor; eosJMP stops fetch until it commits;
//! * **rename** — an sJMP needs [`sempe_core::SempeUnit::can_issue_sjmp`]
//!   (the jbTable LIFO gate) and, once renamed, blocks rename until it
//!   commits plus the scratchpad save (drain #1);
//! * **commit** — sJMP commit snapshots the architectural registers;
//!   eosJMP commits restore/merge registers, charge scratchpad transfer
//!   stalls, and redirect fetch (drains #2 and #3);
//! * **squash** — jbTable entries of squashed sJMPs are removed
//!   newest-first.

use std::collections::VecDeque;
use std::sync::Arc;

use sempe_core::trace::{CacheLevel, ObservationTrace, TraceEvent};
use sempe_core::unit::SempeUnit;
use sempe_core::{Json, SempeFault};
use sempe_isa::decode::DecodeMode;
use sempe_isa::insn::Inst;
use sempe_isa::mem::{MemSnapshot, Memory};
use sempe_isa::opcode::{Format, Opcode};
use sempe_isa::program::{layout, DecodedProgram, Program};
use sempe_isa::reg::{Reg, NUM_ARCH_REGS};
use sempe_isa::semantics::{self, access_width, branch_taken, eval_op, IntFault};
use sempe_isa::{Addr, DecodeError, ExecError};

use crate::bpred::{BranchPredictor, RasCheckpoints, RasHandle};
use crate::cache::MemHierarchy;
use crate::calendar::{Calendar, Event};
use crate::config::{LatencyConfig, Roi, SecurityMode, SimConfig, Stepping};
use crate::lsq::{Blocker, LoadCheck, Lsq};
use crate::rename::{PhysReg, RatCheckpoint, RenameState};
use crate::rob::{Rob, RobEntry, RobSlot, Writeback};
use crate::skip::Wake;
use crate::stats::{SimResult, SimStats};

/// How many run-loop iterations pass between host-deadline polls in
/// [`Simulator::run_with_deadline`]. Each iteration is one tick or one
/// multi-cycle skip, so a quantum is microseconds of host time — the
/// deadline overshoot is bounded well below any protocol-visible
/// latency budget while keeping `Instant::now` off the hot path.
pub const DEADLINE_QUANTUM: u32 = 4096;

/// Instruction-cache line size of the fetch stage's line-transition
/// dedupe (one IL1 access per line), shared with the fast-forward tier.
pub(crate) const FETCH_LINE_BYTES: u64 = 64;

/// Errors a simulation can raise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The program image failed to decode.
    Decode(DecodeError),
    /// An architectural fault reached commit.
    Exec(ExecError),
    /// A SeMPE invariant was violated (nesting overflow etc.).
    Sempe(SempeFault),
    /// No instruction committed for the watchdog window — the pipeline is
    /// wedged (this is a simulator bug, not a program property).
    Watchdog {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Fetch PC at that point.
        fetch_pc: Addr,
        /// PC of the ROB head, if any.
        rob_head_pc: Option<Addr>,
    },
    /// `max_cycles` elapsed before `HALT`.
    CyclesExhausted {
        /// The budget that was exhausted.
        max_cycles: u64,
    },
    /// [`Simulator::checkpoint`] was called with µops still in flight;
    /// a checkpoint must be taken at a quiesced point (right after
    /// construction, or after a completed run).
    NotQuiesced {
        /// Cycle at which the checkpoint was attempted.
        cycle: u64,
    },
    /// A host-side wall-clock deadline expired before `HALT` (see
    /// [`Simulator::run_with_deadline`]). Unlike the cycle budget this is
    /// a property of the *hosting service*, not of the simulated
    /// machine; the error carries the partial progress so callers can
    /// report it.
    HostDeadline {
        /// Simulated cycle at which the deadline was noticed.
        cycle: u64,
        /// Instructions committed up to that point.
        committed: u64,
    },
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::Decode(e) => write!(f, "decode: {e}"),
            SimError::Exec(e) => write!(f, "execution fault: {e}"),
            SimError::Sempe(e) => write!(f, "secure-execution fault: {e}"),
            SimError::Watchdog { cycle, fetch_pc, rob_head_pc } => write!(
                f,
                "pipeline wedged at cycle {cycle} (fetch_pc={fetch_pc:#x}, rob head {rob_head_pc:?})"
            ),
            SimError::CyclesExhausted { max_cycles } => {
                write!(f, "no HALT within {max_cycles} cycles")
            }
            SimError::NotQuiesced { cycle } => {
                write!(f, "checkpoint at cycle {cycle} with µops in flight")
            }
            SimError::HostDeadline { cycle, committed } => {
                write!(f, "host deadline expired at cycle {cycle} ({committed} committed)")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> Self {
        SimError::Decode(e)
    }
}

impl From<SempeFault> for SimError {
    fn from(e: SempeFault) -> Self {
        SimError::Sempe(e)
    }
}

/// A fetched instruction waiting for rename.
#[derive(Debug, Clone)]
struct FrontendEntry {
    seq: u64,
    pc: Addr,
    inst: Inst,
    len: u8,
    ready_cycle: u64,
    pred_taken: bool,
    pred_target: Addr,
    ghr_before: u64,
    ras: Option<RasHandle>,
}

/// Why fetch is parked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FetchBlock {
    None,
    /// Waiting for an eosJMP to commit and redirect.
    Eos,
    /// Fetched a HALT; nothing beyond it matters.
    Halt,
    /// Ran off the decoded region (wrong path); waiting for a squash.
    BadPc,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IqClass {
    Int,
    Fp,
}

/// Verdict of the rename stage's structural-hazard gate for the next
/// frontend instruction (see [`Simulator::rename_gate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RenameGate {
    /// No hazard: the instruction renames this cycle.
    Proceed,
    /// A structural hazard blocks it (and, in order, everything younger)
    /// until some event frees the resource.
    Blocked,
    /// The sJMP gate is closed with nothing left to open it: renaming
    /// must raise the paper's nesting-overflow run-time exception.
    NestingFault,
}

/// One issue-queue entry, kept at its µop's ROB slot: a µop waits in
/// the issue queue at most once, between rename and issue.
///
/// The issue stage is wakeup/select, like the hardware it models: an
/// entry carries a count of still-pending source registers, writebacks
/// decrement it through per-register waiter lists, and an entry whose
/// count hits zero sets its slot's bit in the ready mask. Selection walks
/// that mask from the ROB head — oldest first — instead of scanning
/// every queued µop every cycle.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    seq: u64,
    rs1: Option<PhysReg>,
    rs2: Option<PhysReg>,
    old_dest: Option<PhysReg>,
    /// Source registers still awaiting writeback.
    pending: u8,
    class: IqClass,
    /// The slot holds a waiting µop.
    active: bool,
}

impl IqEntry {
    const EMPTY: IqEntry = IqEntry {
        seq: 0,
        rs1: None,
        rs2: None,
        old_dest: None,
        pending: 0,
        class: IqClass::Int,
        active: false,
    };
}

/// A load parked on a [`LoadCheck::Wait`] verdict until its blocker
/// settles (see [`crate::lsq`]).
#[derive(Debug, Clone, Copy)]
struct ParkedLoad {
    seq: u64,
    slot: RobSlot,
    blocker: Blocker,
}

/// Host-time attribution of one simulator's work: where the *host's*
/// wall clock went, as opposed to where the *simulated* cycles went
/// ([`SimStats`]).
///
/// Lifetime contract (pinned by `tests/host_profile.rs`):
///
/// * **Reset** by [`Simulator::new`] / [`Simulator::rebuild`] (a fresh
///   machine starts a fresh ledger) and by
///   [`Simulator::take_host_profile`].
/// * **Accumulates** across [`Simulator::restore_from`]: a fork-server
///   worker restoring N trials sees the sum of all N restores and runs,
///   so a service request maps to exactly one `take_host_profile()`.
///   This is deliberately *different* from [`Simulator::skip_counters`],
///   which resets per restore (a per-trial diagnostic).
///
/// Like the skip counters, none of this feeds [`SimStats`]: simulated
/// results stay bit-for-bit identical whether or not anyone reads the
/// profile, and the cost is two `Instant::now()` calls per run/restore
/// — nothing per simulated cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Nanoseconds spent decoding + loading the program image
    /// ([`Simulator::new`] / [`Simulator::rebuild`]).
    pub decode_ns: u64,
    /// Nanoseconds spent in [`Simulator::restore_from`] rollbacks.
    pub restore_ns: u64,
    /// Nanoseconds spent inside the run loop.
    pub run_ns: u64,
    /// Number of run calls folded into `run_ns`.
    pub runs: u64,
    /// Number of checkpoint restores folded into `restore_ns`.
    pub restores: u64,
    /// Cycles fast-forwarded by the next-event skip (accumulating
    /// twin of [`Simulator::skip_counters`]).
    pub skipped_cycles: u64,
    /// Skip jumps taken.
    pub skips: u64,
    /// Instructions executed by the tiered functional fast-forward
    /// engine (see [`crate::tier`]).
    pub ff_instructions: u64,
    /// Nanoseconds spent inside fast-forward segments. Attribution
    /// *within* `run_ns` (segments run inside the run loop), so it is
    /// deliberately not added to [`HostProfile::total_ns`].
    pub ff_ns: u64,
    /// Nanoseconds of `ff_ns` spent warming timed structures (caches,
    /// predictors, prefetchers). A sampled estimate: one warm call in
    /// every `FullWarmup::SAMPLE` (`crate::tier`) is timed and scaled up.
    pub warm_ns: u64,
}

impl HostProfile {
    /// Fold another ledger into this one, field-wise (e.g. summing the
    /// main and side arena slots of a service worker).
    pub fn absorb(&mut self, other: &HostProfile) {
        self.decode_ns += other.decode_ns;
        self.restore_ns += other.restore_ns;
        self.run_ns += other.run_ns;
        self.runs += other.runs;
        self.restores += other.restores;
        self.skipped_cycles += other.skipped_cycles;
        self.skips += other.skips;
        self.ff_instructions += other.ff_instructions;
        self.ff_ns += other.ff_ns;
        self.warm_ns += other.warm_ns;
    }

    /// Total attributed host nanoseconds (decode + restore + run).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.decode_ns.saturating_add(self.restore_ns).saturating_add(self.run_ns)
    }

    /// JSON form (durations in whole microseconds), as embedded in
    /// bench reports and service trace events.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("decode_us", self.decode_ns / 1_000)
            .with("restore_us", self.restore_ns / 1_000)
            .with("run_us", self.run_ns / 1_000)
            .with("runs", self.runs)
            .with("restores", self.restores)
            .with("skipped_cycles", self.skipped_cycles)
            .with("skips", self.skips)
            .with("ff_instructions", self.ff_instructions)
            .with("ff_us", self.ff_ns / 1_000)
            .with("warm_us", self.warm_ns / 1_000)
    }
}

fn elapsed_ns(since: std::time::Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// The cycle-level simulator.
///
/// # Examples
///
/// ```
/// use sempe_isa::asm::Asm;
/// use sempe_isa::reg::abi;
/// use sempe_sim::config::SimConfig;
/// use sempe_sim::pipeline::Simulator;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.movi(abi::A[0], 20);
/// a.addi(abi::A[0], abi::A[0], 22);
/// a.halt();
/// let prog = a.assemble()?;
///
/// let mut sim = Simulator::new(&prog, SimConfig::baseline())?;
/// let result = sim.run(10_000)?;
/// assert!(result.halted);
/// assert_eq!(sim.arch_reg(abi::A[0]), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
    /// Shared so a [`Checkpoint`] (and every simulator forked from it)
    /// reuses one decode instead of re-decoding per trial.
    prog: Arc<DecodedProgram>,
    mem: Memory,
    cycle: u64,
    seq_counter: u64,
    halted: bool,

    // Front end.
    fetch_pc: Addr,
    fetch_stall_until: u64,
    fetch_block: FetchBlock,
    last_fetch_line: Option<u64>,
    frontend: VecDeque<FrontendEntry>,
    bp: BranchPredictor,

    // Back end.
    rename: RenameState,
    rob: Rob,
    /// Issue-queue entries by ROB slot; both classes share it (see
    /// [`IqEntry`]).
    iq: Vec<IqEntry>,
    /// Bit `slot` is set iff `iq[slot]` is active with no pending source.
    iq_ready: Vec<u64>,
    /// Occupancy per class (structural-hazard gating at rename).
    iq_count_int: usize,
    iq_count_fp: usize,
    /// Per physical register: `(ROB slot, seq)` of entries waiting on
    /// its writeback. Stale records are dropped at wake time.
    reg_waiters: Vec<Vec<(u32, u64)>>,
    lsq: Lsq,
    /// Pending completions by due cycle: the complete stage takes only
    /// what is due, and each event's payload waits in its ROB entry.
    events: Calendar,
    /// Loads parked on a store, in the order they parked.
    replay: Vec<ParkedLoad>,
    /// Store-queue version at the last replay pass. A pass runs on every
    /// cycle the queue changed while loads are parked, but re-checks only
    /// the loads whose blocker settled.
    replay_lsq_version: u64,
    /// RAT checkpoint of each ROB slot's branch, for squash recovery.
    rat_checkpoints: Vec<RatCheckpoint>,
    /// RAS snapshots of the in-flight branches, taken at fetch.
    ras_checkpoints: RasCheckpoints,
    rename_blocked_on: Option<u64>,
    rename_stall_until: u64,
    /// The integer divider is a single non-pipelined unit.
    int_div_busy_until: u64,
    /// So is the FP divider.
    fp_div_busy_until: u64,

    // Memory system.
    hier: MemHierarchy,

    // Architectural state (committed).
    arch_regs: [u64; NUM_ARCH_REGS],

    // SeMPE.
    unit: SempeUnit,

    // Tiered execution (see `crate::tier`).
    /// Under [`Stepping::Tiered`]: `true` while the detailed pipeline
    /// must run (inside the ROI, or executing toward its close); `false`
    /// while the next quiesced point may hand off to fast-forward. The
    /// fetch stage is gated on it so the machine drains naturally after
    /// an ROI closes. Meaningless (and ignored) in other stepping modes.
    tier_detailed: bool,
    /// Cycle at which the currently open ROI span started (an outermost
    /// sJMP commit under [`Roi::Regions`], the `skip+1`-th commit under
    /// [`Roi::Window`]); `None` while outside the ROI. Commit-anchored,
    /// so identical across stepping modes.
    roi_open_cycle: Option<u64>,
    /// Completed ROI spans as `(open_cycle, close_cycle)` pairs, in
    /// commit order. The substrate for ROI-window trace comparison and
    /// bench reporting.
    roi_spans: Vec<(u64, u64)>,

    // Observability.
    trace: ObservationTrace,
    stats: SimStats,
    last_commit_cycle: u64,
    /// Cycles fast-forwarded by the next-event skip. Host-side
    /// diagnostics only — deliberately *not* part of [`SimStats`], which
    /// must be bit-for-bit identical between skip and classic stepping.
    skipped_cycles: u64,
    /// Number of skip jumps taken.
    skips: u64,
    /// Host-time ledger (see [`HostProfile`] for the lifetime contract).
    host: HostProfile,

    // Reusable scratch buffers: the per-cycle stages must not allocate.
    due_scratch: Vec<Event>,
}

impl Simulator {
    /// Build a simulator for `prog` under `config`, loading code and data
    /// into a fresh memory.
    ///
    /// # Errors
    ///
    /// [`SimError::Decode`] when the image does not decode under the
    /// configured front end.
    pub fn new(prog: &Program, config: SimConfig) -> Result<Self, SimError> {
        let build_start = std::time::Instant::now();
        let decode_mode = match config.mode {
            SecurityMode::Baseline => DecodeMode::Legacy,
            SecurityMode::Sempe => DecodeMode::Sempe,
        };
        let decoded = prog.decoded(decode_mode)?;
        let mut mem = Memory::new();
        prog.load_into(&mut mem);
        let mut arch_regs = [0u64; NUM_ARCH_REGS];
        arch_regs[Reg::SP.index()] = layout::STACK_TOP;
        let mut sim = Simulator {
            fetch_pc: decoded.entry(),
            prog: Arc::new(decoded),
            mem,
            cycle: 0,
            seq_counter: 0,
            halted: false,
            fetch_stall_until: 0,
            fetch_block: FetchBlock::None,
            last_fetch_line: None,
            frontend: VecDeque::new(),
            bp: BranchPredictor::new(config.bpred),
            rename: RenameState::new(
                config.core.int_phys_regs,
                config.core.fp_phys_regs,
                &arch_regs,
            ),
            rob: Rob::new(config.core.rob_entries),
            iq: vec![IqEntry::EMPTY; config.core.rob_entries],
            iq_ready: vec![0; config.core.rob_entries.div_ceil(64)],
            iq_count_int: 0,
            iq_count_fp: 0,
            reg_waiters: vec![Vec::new(); config.core.int_phys_regs + config.core.fp_phys_regs],
            lsq: Lsq::new(config.core.lq_entries, config.core.sq_entries),
            events: Calendar::new(),
            replay: Vec::new(),
            replay_lsq_version: 0,
            rat_checkpoints: Vec::new(),
            ras_checkpoints: RasCheckpoints::default(),
            rename_blocked_on: None,
            rename_stall_until: 0,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            hier: MemHierarchy::new(config.mem),
            arch_regs,
            unit: SempeUnit::new(config.sempe),
            tier_detailed: false,
            roi_open_cycle: None,
            roi_spans: Vec::new(),
            trace: ObservationTrace::new(),
            stats: SimStats::default(),
            last_commit_cycle: 0,
            skipped_cycles: 0,
            skips: 0,
            host: HostProfile::default(),
            due_scratch: Vec::new(),
            config,
        };
        sim.host.decode_ns = elapsed_ns(build_start);
        Ok(sim)
    }

    /// Size the branch checkpoint arrays for the configuration. Done at
    /// the start of a run rather than at construction, so a rebuild
    /// reuses the previous program's arrays instead of allocating (and
    /// zeroing) fresh ones: one RAT checkpoint per ROB slot, and one RAS
    /// snapshot per branch in the ROB or the frontend queue at most.
    fn size_branch_checkpoints(&mut self) {
        let core = self.config.core;
        self.rat_checkpoints.resize(core.rob_entries, [0; NUM_ARCH_REGS]);
        self.ras_checkpoints
            .ensure(core.rob_entries + core.frontend_queue, self.config.bpred.ras_depth);
    }

    /// Rebuild this simulator in place for a new program and
    /// configuration, recycling the previous run's heap allocations.
    ///
    /// Semantically identical to `*self = Simulator::new(prog, config)?`
    /// — every recycled collection starts a run empty, so only spare
    /// capacity carries over, never state — but a long-lived worker (the
    /// evaluation service keeps one simulator arena per worker thread)
    /// skips re-growing the wakeup lists, completion calendar, branch
    /// checkpoint arrays, and stage scratch buffers on every job.
    ///
    /// # Errors
    ///
    /// [`SimError::Decode`] when the image does not decode under the
    /// configured front end; `self` is left untouched in that case.
    pub fn rebuild(&mut self, prog: &Program, config: SimConfig) -> Result<(), SimError> {
        let mut fresh = Self::new(prog, config)?;
        self.frontend.clear();
        core::mem::swap(&mut fresh.frontend, &mut self.frontend);
        self.replay.clear();
        core::mem::swap(&mut fresh.replay, &mut self.replay);
        self.roi_spans.clear();
        core::mem::swap(&mut fresh.roi_spans, &mut self.roi_spans);
        self.due_scratch.clear();
        core::mem::swap(&mut fresh.due_scratch, &mut self.due_scratch);
        self.events.clear();
        core::mem::swap(&mut fresh.events, &mut self.events);
        self.ras_checkpoints.clear();
        core::mem::swap(&mut fresh.ras_checkpoints, &mut self.ras_checkpoints);
        core::mem::swap(&mut fresh.rat_checkpoints, &mut self.rat_checkpoints);
        if self.reg_waiters.len() == fresh.reg_waiters.len() {
            for w in &mut self.reg_waiters {
                w.clear();
            }
            core::mem::swap(&mut fresh.reg_waiters, &mut self.reg_waiters);
        }
        *self = fresh;
        Ok(())
    }

    /// The arena idiom shared by every long-lived driver (service
    /// workers, the differential fuzzer): rebuild `slot`'s simulator in
    /// place for the next program, or construct one on first use, and
    /// hand back the ready-to-run machine. Centralized here so a future
    /// change to rebuild semantics cannot silently diverge between
    /// callers.
    ///
    /// # Errors
    ///
    /// [`SimError`] from construction or rebuild; `slot` keeps its
    /// previous simulator (if any) on rebuild failure.
    pub fn rebuild_or_new<'a>(
        slot: &'a mut Option<Simulator>,
        prog: &Program,
        config: SimConfig,
    ) -> Result<&'a mut Simulator, SimError> {
        match slot {
            Some(sim) => {
                sim.rebuild(prog, config)?;
                Ok(sim)
            }
            None => Ok(slot.insert(Simulator::new(prog, config)?)),
        }
    }

    /// Capture the machine's complete state as a [`Checkpoint`].
    ///
    /// The checkpoint is self-contained and immutable: it carries the
    /// shared decode (`Arc<DecodedProgram>`), a memory snapshot, and a
    /// copy of every persistent structure (register files, RAT, branch
    /// predictor tables, cache hierarchy, SeMPE unit, statistics, trace),
    /// so any number of simulators can later [`Simulator::restore_from`]
    /// it — the fork-server pattern: build + decode once, fork per trial.
    ///
    /// Taking the snapshot also arms this memory's dirty-page tracking,
    /// making a subsequent restore *of this simulator* O(dirty pages).
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiesced`] when µops are in flight: a checkpoint is
    /// only defined at a drained point (right after construction — the
    /// intended fork point — or after a completed run), because in-flight
    /// state is deliberately not captured.
    pub fn checkpoint(&mut self) -> Result<Checkpoint, SimError> {
        if !self.is_quiesced() {
            return Err(SimError::NotQuiesced { cycle: self.cycle });
        }
        Ok(Checkpoint {
            config: self.config,
            prog: Arc::clone(&self.prog),
            mem: self.mem.snapshot(),
            cycle: self.cycle,
            seq_counter: self.seq_counter,
            halted: self.halted,
            fetch_pc: self.fetch_pc,
            fetch_stall_until: self.fetch_stall_until,
            fetch_block: self.fetch_block,
            last_fetch_line: self.last_fetch_line,
            bp: self.bp.clone(),
            rename: self.rename.clone(),
            rename_stall_until: self.rename_stall_until,
            int_div_busy_until: self.int_div_busy_until,
            fp_div_busy_until: self.fp_div_busy_until,
            lsq_forwards: self.lsq.forwards,
            hier: self.hier.clone(),
            arch_regs: self.arch_regs,
            unit: self.unit.clone(),
            tier_detailed: self.tier_detailed,
            roi_open_cycle: self.roi_open_cycle,
            roi_spans: self.roi_spans.clone(),
            trace: self.trace.clone(),
            stats: self.stats,
            last_commit_cycle: self.last_commit_cycle,
        })
    }

    /// Is the machine at a drained point — no µops in flight anywhere?
    /// The gate for [`Simulator::checkpoint`] and for a tiered
    /// detailed→fast-forward handoff.
    fn is_quiesced(&self) -> bool {
        self.frontend.is_empty()
            && self.rob.is_empty()
            && self.events.is_empty()
            && self.replay.is_empty()
            && self.lsq.is_idle()
            && self.rename_blocked_on.is_none()
    }

    /// Become the checkpointed machine, bit for bit.
    ///
    /// Persistent state is copied from the checkpoint; the memory rolls
    /// back through its dirty-page log (O(dirty pages) when this
    /// simulator is synchronized with `cp`'s snapshot — always the case
    /// in a restore-patch-run loop — and a full image copy otherwise,
    /// which still skips the decode). Transient structures (frontend,
    /// ROB, issue queue, completion calendar, LSQ, branch checkpoints)
    /// were empty at checkpoint time by the quiesce gate, so they reset
    /// in place, keeping their allocations. A run after `restore_from` is cycle-for-cycle,
    /// event-for-event identical to a run of a freshly built simulator
    /// with the same program image (asserted by the golden tests in
    /// `tests/checkpoint.rs` and the fuzzer's fork oracle).
    pub fn restore_from(&mut self, cp: &Checkpoint) {
        let restore_start = std::time::Instant::now();
        // Persistent state.
        self.config = cp.config;
        self.prog = Arc::clone(&cp.prog);
        self.mem.restore(&cp.mem);
        self.cycle = cp.cycle;
        self.seq_counter = cp.seq_counter;
        self.halted = cp.halted;
        self.fetch_pc = cp.fetch_pc;
        self.fetch_stall_until = cp.fetch_stall_until;
        self.fetch_block = cp.fetch_block;
        self.last_fetch_line = cp.last_fetch_line;
        self.bp.clone_from(&cp.bp);
        self.rename.clone_from(&cp.rename);
        self.rename_stall_until = cp.rename_stall_until;
        self.int_div_busy_until = cp.int_div_busy_until;
        self.fp_div_busy_until = cp.fp_div_busy_until;
        self.hier.clone_from(&cp.hier);
        self.arch_regs = cp.arch_regs;
        self.unit.clone_from(&cp.unit);
        self.tier_detailed = cp.tier_detailed;
        self.roi_open_cycle = cp.roi_open_cycle;
        self.roi_spans.clear();
        self.roi_spans.extend_from_slice(&cp.roi_spans);
        self.trace.clone_from(&cp.trace);
        self.stats = cp.stats;
        self.last_commit_cycle = cp.last_commit_cycle;
        // Host-side skip diagnostics restart with the forked trial.
        self.skipped_cycles = 0;
        self.skips = 0;
        // Transient state: empty at the checkpoint, so reset in place.
        self.frontend.clear();
        self.rob.reset(cp.config.core.rob_entries);
        self.iq.clear();
        self.iq.resize(cp.config.core.rob_entries, IqEntry::EMPTY);
        self.iq_ready.clear();
        self.iq_ready.resize(cp.config.core.rob_entries.div_ceil(64), 0);
        self.iq_count_int = 0;
        self.iq_count_fp = 0;
        let total_phys = cp.config.core.int_phys_regs + cp.config.core.fp_phys_regs;
        self.reg_waiters.resize_with(total_phys, Vec::new);
        for w in &mut self.reg_waiters {
            w.clear();
        }
        self.lsq.reset(cp.config.core.lq_entries, cp.config.core.sq_entries);
        self.lsq.forwards = cp.lsq_forwards;
        self.replay_lsq_version = 0;
        self.events.clear();
        self.replay.clear();
        self.ras_checkpoints.clear();
        self.rename_blocked_on = None;
        self.due_scratch.clear();
        // The host ledger accumulates across restores (one request =
        // many trials); only rebuild/take reset it.
        self.host.restore_ns += elapsed_ns(restore_start);
        self.host.restores += 1;
    }

    /// Build a simulator directly from a checkpoint — no program decode,
    /// no image reload beyond the snapshot copy. The workhorse of a fork
    /// server's first trial on a fresh worker; later trials reuse the
    /// worker's simulator via [`Simulator::restore_from`].
    #[must_use]
    pub fn from_checkpoint(cp: &Checkpoint) -> Simulator {
        let config = cp.config;
        let mut sim = Simulator {
            config,
            prog: Arc::clone(&cp.prog),
            mem: Memory::new(),
            cycle: 0,
            seq_counter: 0,
            halted: false,
            fetch_pc: 0,
            fetch_stall_until: 0,
            fetch_block: FetchBlock::None,
            last_fetch_line: None,
            frontend: VecDeque::new(),
            bp: cp.bp.clone(),
            rename: cp.rename.clone(),
            rob: Rob::new(config.core.rob_entries),
            iq: vec![IqEntry::EMPTY; config.core.rob_entries],
            iq_ready: vec![0; config.core.rob_entries.div_ceil(64)],
            iq_count_int: 0,
            iq_count_fp: 0,
            reg_waiters: vec![Vec::new(); config.core.int_phys_regs + config.core.fp_phys_regs],
            lsq: Lsq::new(config.core.lq_entries, config.core.sq_entries),
            events: Calendar::new(),
            replay: Vec::new(),
            replay_lsq_version: 0,
            rat_checkpoints: Vec::new(),
            ras_checkpoints: RasCheckpoints::default(),
            rename_blocked_on: None,
            rename_stall_until: 0,
            int_div_busy_until: 0,
            fp_div_busy_until: 0,
            hier: cp.hier.clone(),
            arch_regs: cp.arch_regs,
            unit: cp.unit.clone(),
            tier_detailed: cp.tier_detailed,
            roi_open_cycle: cp.roi_open_cycle,
            roi_spans: cp.roi_spans.clone(),
            trace: cp.trace.clone(),
            stats: cp.stats,
            last_commit_cycle: 0,
            skipped_cycles: 0,
            skips: 0,
            host: HostProfile::default(),
            due_scratch: Vec::new(),
        };
        sim.restore_from(cp);
        sim
    }

    /// The fork-server arena idiom: restore `slot`'s simulator from the
    /// checkpoint, or construct one from it on first use.
    pub fn restore_or_new<'a>(
        slot: &'a mut Option<Simulator>,
        cp: &Checkpoint,
    ) -> &'a mut Simulator {
        match slot {
            Some(sim) => {
                sim.restore_from(cp);
                sim
            }
            None => slot.insert(Simulator::from_checkpoint(cp)),
        }
    }

    /// Committed value of an architectural register.
    #[must_use]
    pub fn arch_reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.arch_regs[r.index()]
        }
    }

    /// The simulated memory (committed stores only).
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory access (poke inputs before running).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// The observation trace (empty unless `record_trace` was set).
    #[must_use]
    pub fn trace(&self) -> &ObservationTrace {
        &self.trace
    }

    /// Statistics so far (cache/bpred/sempe counters are snapshotted).
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s.il1 = self.hier.il1_stats();
        s.dl1 = self.hier.dl1_stats();
        s.l2 = self.hier.l2_stats();
        s.bpred = self.bp.stats();
        s.sempe = self.unit.stats();
        s.load_forwards = self.lsq.forwards;
        s
    }

    /// Completed ROI spans as `(open_cycle, close_cycle)` pairs in
    /// commit order — one per outermost secure region under
    /// [`Roi::Regions`], at most one under [`Roi::Window`]. Identical
    /// across stepping modes wherever tiered warmup is exact; the
    /// substrate for ROI-window trace comparison
    /// ([`ObservationTrace::window`]).
    #[must_use]
    pub fn roi_spans(&self) -> &[(u64, u64)] {
        &self.roi_spans
    }

    /// Host-side cycle-skip diagnostics: `(cycles fast-forwarded, skip
    /// jumps taken)` since construction, rebuild, or restore. Kept out
    /// of [`SimStats`] so identical-run comparisons (skip vs classic,
    /// forked vs cold) never see them.
    #[must_use]
    pub fn skip_counters(&self) -> (u64, u64) {
        (self.skipped_cycles, self.skips)
    }

    /// The host-time ledger since construction, rebuild, or the last
    /// [`Simulator::take_host_profile`]. See [`HostProfile`] for the
    /// exact reset/accumulate contract.
    #[must_use]
    pub fn host_profile(&self) -> HostProfile {
        self.host
    }

    /// Read and reset the host-time ledger — the per-request idiom: a
    /// service worker takes the profile after finishing a job so the
    /// next job on the same arena starts from zero.
    pub fn take_host_profile(&mut self) -> HostProfile {
        core::mem::take(&mut self.host)
    }

    /// Run until `HALT` or `max_cycles`.
    ///
    /// Unless [`Stepping::Classic`] is configured, quiescent spans —
    /// runs of cycles in which no stage can make forward progress — are
    /// fast-forwarded to the next event instead of ticked one by one.
    /// This is purely a host-speed optimization: cycles, statistics,
    /// outputs, observation traces, and error cycles are bit-for-bit
    /// identical to classic stepping (see [`crate::skip`]).
    ///
    /// Under [`Stepping::Tiered`], instructions outside the region of
    /// interest additionally execute on the functional fast-forward
    /// engine (see [`crate::tier`]): `stats.cycles` then counts detailed
    /// cycles only, while `committed`, `roi_cycles`, architectural
    /// results, and ROI-window traces remain comparable to a full
    /// detailed run.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; see the variants.
    pub fn run(&mut self, max_cycles: u64) -> Result<SimResult, SimError> {
        self.run_with_deadline(max_cycles, None)
    }

    /// [`Simulator::run`] with an additional host-side wall-clock bound.
    ///
    /// The deadline is polled every [`DEADLINE_QUANTUM`] loop iterations
    /// (a "watchdog quantum"), so the run returns at most one quantum of
    /// simulation past the deadline. The clock never influences the
    /// simulated machine — two runs of the same binary are bit-for-bit
    /// identical whether or not a deadline is armed, unless the deadline
    /// actually fires (in which case [`SimError::HostDeadline`] carries
    /// the partial progress).
    ///
    /// # Errors
    ///
    /// Any [`SimError`]; see the variants.
    pub fn run_with_deadline(
        &mut self,
        max_cycles: u64,
        deadline: Option<std::time::Instant>,
    ) -> Result<SimResult, SimError> {
        let run_start = std::time::Instant::now();
        self.size_branch_checkpoints();
        let result = self.run_loop(max_cycles, deadline);
        self.host.run_ns += elapsed_ns(run_start);
        self.host.runs += 1;
        result
    }

    fn run_loop(
        &mut self,
        max_cycles: u64,
        deadline: Option<std::time::Instant>,
    ) -> Result<SimResult, SimError> {
        let mut quantum = 0u32;
        while !self.halted {
            if self.cycle >= max_cycles {
                return Err(SimError::CyclesExhausted { max_cycles });
            }
            if self.cycle.saturating_sub(self.last_commit_cycle) > self.config.watchdog_cycles {
                return Err(SimError::Watchdog {
                    cycle: self.cycle,
                    fetch_pc: self.fetch_pc,
                    rob_head_pc: self.rob.head().map(|e| e.pc),
                });
            }
            if let Some(d) = deadline {
                quantum += 1;
                if quantum >= DEADLINE_QUANTUM {
                    quantum = 0;
                    if std::time::Instant::now() >= d {
                        return Err(SimError::HostDeadline {
                            cycle: self.cycle,
                            committed: self.stats.committed,
                        });
                    }
                }
            }
            // Tiered handoff: outside the ROI, at a quiesced point, the
            // functional fast-forward engine executes the gap. It moves
            // `stats.committed` (never `cycle`); the `continue` re-enters
            // with `tier_detailed` set so detailed execution resumes at
            // the boundary.
            if self.config.stepping == Stepping::Tiered && !self.tier_detailed && self.is_quiesced()
            {
                self.fast_forward_segment(max_cycles, deadline)?;
                continue;
            }
            // A skip moves `cycle` without ticking; loop back around so
            // the budget and watchdog bounds are re-checked at the new
            // cycle exactly as classic stepping would have checked them.
            if self.config.stepping != Stepping::Classic && self.try_skip(max_cycles) {
                continue;
            }
            self.tick()?;
        }
        self.trace.total_cycles = self.cycle;
        Ok(SimResult { halted: true, stats: self.stats() })
    }

    /// Combined next-event report of every timed structure (see
    /// [`crate::skip`] for the per-structure contracts). [`Wake::Now`]
    /// means some stage can act in the current cycle and skipping is
    /// illegal; [`Wake::At`] bounds how far the machine may
    /// fast-forward; [`Wake::Idle`] means only the run bounds (cycle
    /// budget, watchdog) limit the jump — the machine is wedged.
    #[must_use]
    pub fn next_wake(&self) -> Wake {
        let mut wake = self.rob.commit_wake();
        if wake == Wake::Now {
            return wake;
        }
        wake = wake.earliest(self.events_wake());
        if wake == Wake::Now {
            return wake;
        }
        wake = wake.earliest(self.issue_wake());
        if wake == Wake::Now {
            return wake;
        }
        wake = wake.earliest(self.replay_wake());
        if wake == Wake::Now {
            return wake;
        }
        wake = wake.earliest(self.rename_wake());
        if wake == Wake::Now {
            return wake;
        }
        wake = wake.earliest(self.fetch_wake());
        wake = wake.earliest(self.hier.wake());
        wake.earliest(match self.unit.next_event_cycle() {
            None => Wake::Idle,
            Some(c) => Wake::At(c),
        })
    }

    /// Attempt a next-event fast-forward. Returns `true` when cycles
    /// were skipped (the caller must re-check its run bounds before
    /// ticking). The jump is clamped to `max_cycles` and the watchdog
    /// deadline so both errors fire at exactly the cycle classic
    /// stepping reports them.
    fn try_skip(&mut self, max_cycles: u64) -> bool {
        let deadline =
            self.last_commit_cycle.saturating_add(self.config.watchdog_cycles).saturating_add(1);
        let bound = max_cycles.min(deadline);
        let target = match self.next_wake() {
            Wake::Now => return false,
            Wake::At(t) => t.min(bound),
            Wake::Idle => bound,
        };
        if target <= self.cycle {
            return false;
        }
        let span = target - self.cycle;
        // Bulk-account the per-cycle counters the skipped ticks would
        // have incremented. The only one is the rename drain stall; its
        // predicate is constant across the span: `rename_blocked_on`
        // only changes at commit/squash (events, which end a skip), and
        // `rename_wake` caps the jump at `rename_stall_until` whenever
        // the timer is still running.
        if self.rename_blocked_on.is_some() || self.cycle < self.rename_stall_until {
            self.stats.drain_stall_cycles += span;
        }
        self.skipped_cycles += span;
        self.skips += 1;
        self.host.skipped_cycles += span;
        self.host.skips += 1;
        self.cycle = target;
        true
    }

    /// May a fast-forward segment run right now (ignoring quiescence)?
    /// Never inside a secure region — SeMPE's both-path semantics belong
    /// to the pipeline — and never inside an explicit measurement
    /// window.
    fn ff_permitted(&self) -> bool {
        !self.unit.in_secure_region()
            && crate::tier::ff_window_allows(self.config.roi, self.stats.committed)
    }

    /// Execute one functional fast-forward segment: from the current
    /// fetch PC to the next ROI boundary (or fault/budget/deadline),
    /// warming the timed structures along the committed path. The
    /// machine must be quiesced (it stays architecturally consistent —
    /// fast-forward has no in-flight state). On a boundary the detailed
    /// pipeline resumes at the boundary PC with `tier_detailed` set.
    fn fast_forward_segment(
        &mut self,
        max_cycles: u64,
        deadline: Option<std::time::Instant>,
    ) -> Result<(), SimError> {
        use crate::tier::{FastForward, FfStop, FullWarmup};
        let ff_start = std::time::Instant::now();
        // In any detailed run `committed <= retire_width * cycles`, so
        // this bound only fires where classic stepping would also have
        // run out of its cycle budget.
        let budget = max_cycles.saturating_mul(self.config.core.retire_width as u64);
        let mut ff = FastForward {
            prog: &self.prog,
            mem: &mut self.mem,
            regs: &mut self.arch_regs,
            last_fetch_line: &mut self.last_fetch_line,
            warm: FullWarmup::new(&mut self.hier, &mut self.bp, self.config.core.sq_entries),
            pc: self.fetch_pc,
            committed: self.stats.committed,
            executed: 0,
        };
        let stop = ff.run(self.config.roi, budget, deadline);
        let (pc, committed, executed, warm_ns) =
            (ff.pc, ff.committed, ff.executed, ff.warm.warm_ns());
        self.fetch_pc = pc;
        self.stats.committed = committed;
        self.stats.ff_committed += executed;
        if executed > 0 {
            // Fast-forwarded instructions are forward progress as far as
            // the wedge watchdog is concerned.
            self.last_commit_cycle = self.cycle;
        }
        self.host.ff_instructions += executed;
        self.host.ff_ns += elapsed_ns(ff_start);
        self.host.warm_ns += warm_ns;
        match stop {
            FfStop::Boundary => {
                // Resynchronize the physical file with the fast-forwarded
                // architectural registers (the machine is quiesced, so
                // this is the same RAT rebuild the eosJMP restore does).
                for r in Reg::all() {
                    self.rename.poke_arch(r, self.arch_regs[r.index()]);
                }
                // Detailed execution resumes cleanly at the boundary PC;
                // mid-gap fetch stalls belong to the fast-forwarded past.
                self.fetch_block = FetchBlock::None;
                self.fetch_stall_until = self.cycle;
                self.tier_detailed = true;
                Ok(())
            }
            FfStop::Fault(e) => Err(SimError::Exec(e)),
            FfStop::Budget => Err(SimError::CyclesExhausted { max_cycles }),
            FfStop::Deadline => {
                Err(SimError::HostDeadline { cycle: self.cycle, committed: self.stats.committed })
            }
        }
    }

    /// Next-event report of the completion calendar.
    fn events_wake(&self) -> Wake {
        match self.events.next_due(self.cycle) {
            None => Wake::Idle,
            Some(due) if due <= self.cycle => Wake::Now,
            Some(due) => Wake::At(due),
        }
    }

    /// Next-event report of the issue stage: any woken entry can issue
    /// this cycle. Conservative — a ready mask holding only entries
    /// blocked on a busy divider also reports [`Wake::Now`]; those spans
    /// are short and simply fall back to classic stepping.
    fn issue_wake(&self) -> Wake {
        if self.any_ready() {
            Wake::Now
        } else {
            Wake::Idle
        }
    }

    fn any_ready(&self) -> bool {
        self.iq_ready.iter().any(|&w| w != 0)
    }

    /// Next-event report of the load-replay machinery: a replay pass is
    /// due when the store queue has changed since the last one while
    /// loads are parked.
    fn replay_wake(&self) -> Wake {
        if self.replay.is_empty() {
            Wake::Idle
        } else {
            self.lsq.wake_since(self.replay_lsq_version)
        }
    }

    /// Next-event report of the rename stage. Mirrors `rename_stage`'s
    /// gating exactly: the structural hazards come from the same
    /// [`Simulator::rename_gate`] the stage itself uses, so the two
    /// cannot drift.
    fn rename_wake(&self) -> Wake {
        if self.rename_blocked_on.is_some() {
            // Dissolves at the sJMP's commit or squash — event-driven.
            return Wake::Idle;
        }
        if self.cycle < self.rename_stall_until {
            // Also bounds the drain-stall bulk accounting in `try_skip`.
            return Wake::At(self.rename_stall_until);
        }
        let Some(fe) = self.frontend.front() else { return Wake::Idle };
        if fe.ready_cycle > self.cycle {
            return Wake::At(fe.ready_cycle);
        }
        match self.rename_gate(&fe.inst) {
            // A pending nesting-overflow fault must be raised by a real
            // tick at this very cycle, exactly as classic stepping does.
            RenameGate::Proceed | RenameGate::NestingFault => Wake::Now,
            RenameGate::Blocked => Wake::Idle,
        }
    }

    /// Next-event report of the fetch stage.
    fn fetch_wake(&self) -> Wake {
        if self.fetch_block != FetchBlock::None {
            // Eos/Halt/BadPc blocks dissolve at a commit or squash.
            return Wake::Idle;
        }
        if self.frontend.len() >= self.config.core.frontend_queue {
            return Wake::Idle;
        }
        if self.cycle < self.fetch_stall_until {
            return Wake::At(self.fetch_stall_until);
        }
        Wake::Now
    }

    /// Advance one cycle.
    fn tick(&mut self) -> Result<(), SimError> {
        self.commit_stage()?;
        if self.halted {
            return Ok(());
        }
        self.complete_stage();
        self.replay_loads();
        self.issue_stage();
        self.rename_stage()?;
        self.fetch_stage();
        self.cycle += 1;
        Ok(())
    }

    // ---------------------------------------------------------- tracing

    fn trace_event(&mut self, ev: TraceEvent) {
        if self.config.record_trace {
            self.trace.push(self.cycle, ev);
        }
    }

    fn trace_cache(&mut self, l1: CacheLevel, result: crate::cache::AccessResult) {
        if !self.config.record_trace {
            return;
        }
        self.trace.push(self.cycle, TraceEvent::Cache { level: l1, hit: result.l1_hit });
        if !result.l1_hit {
            self.trace
                .push(self.cycle, TraceEvent::Cache { level: CacheLevel::L2, hit: result.l2_hit });
        }
    }

    // ------------------------------------------------------------ fetch

    fn fetch_stage(&mut self) {
        // Tiered: once the ROI closes, fetch stops so the machine drains
        // to a quiesced point and hands off to fast-forward; in-flight
        // work (including squash redirects) still settles `fetch_pc` on
        // the correct committed path first.
        if self.config.stepping == Stepping::Tiered && !self.tier_detailed {
            return;
        }
        if self.fetch_block != FetchBlock::None || self.cycle < self.fetch_stall_until {
            return;
        }
        for _ in 0..self.config.core.fetch_width {
            if self.frontend.len() >= self.config.core.frontend_queue {
                break;
            }
            let Some((inst, len)) = self.prog.try_fetch(self.fetch_pc) else {
                // Wrong-path garbage; wait for the squash that must come.
                self.fetch_block = FetchBlock::BadPc;
                break;
            };
            // Instruction-cache timing, one access per line transition.
            let line = self.fetch_pc / FETCH_LINE_BYTES;
            if self.last_fetch_line != Some(line) {
                let r = self.hier.fetch_access(self.fetch_pc);
                self.trace_cache(CacheLevel::Il1, r);
                self.last_fetch_line = Some(line);
                if !r.l1_hit {
                    self.fetch_stall_until = self.cycle + r.latency;
                    break;
                }
            }

            let pc = self.fetch_pc;
            let next_seq = pc + len as Addr;
            let seq = self.seq_counter;
            self.seq_counter += 1;
            self.stats.fetched += 1;

            let mut fe = FrontendEntry {
                seq,
                pc,
                inst,
                len: len as u8,
                ready_cycle: self.cycle + 2, // decode pipeline depth
                pred_taken: false,
                pred_target: 0,
                ghr_before: self.bp.ghr(),
                ras: None,
            };

            let mut next_pc = next_seq;
            let mut end_group = false;
            match inst.op {
                op if op.is_cond_branch() => {
                    if inst.is_sjmp() {
                        // Secure branch: not-taken path first, no predictor.
                        fe.pred_taken = false;
                        fe.pred_target = next_seq;
                    } else {
                        let (taken, ghr_before) = self.bp.predict_cond(pc);
                        fe.pred_taken = taken;
                        fe.ghr_before = ghr_before;
                        fe.pred_target = if taken { inst.branch_target(pc, len) } else { next_seq };
                        fe.ras = Some(self.ras_checkpoints.take(self.bp.ras()));
                        if taken {
                            next_pc = fe.pred_target;
                            end_group = true;
                        }
                    }
                }
                Opcode::Jal => {
                    if inst.rd == Reg::RA {
                        self.bp.on_call(next_seq);
                    }
                    next_pc = inst.branch_target(pc, len);
                    fe.pred_target = next_pc;
                    end_group = true;
                }
                Opcode::Jalr => {
                    let predicted = if inst.rd == Reg::X0 && inst.rs1 == Reg::RA {
                        self.bp.predict_return().unwrap_or(next_seq)
                    } else {
                        let (t, _) = self.bp.predict_indirect(pc);
                        if t == 0 {
                            next_seq
                        } else {
                            t
                        }
                    };
                    fe.pred_target = predicted;
                    fe.ras = Some(self.ras_checkpoints.take(self.bp.ras()));
                    next_pc = predicted;
                    end_group = true;
                }
                Opcode::EosJmp => {
                    self.fetch_block = FetchBlock::Eos;
                    end_group = true;
                }
                Opcode::Halt => {
                    self.fetch_block = FetchBlock::Halt;
                    end_group = true;
                }
                _ => {}
            }

            self.frontend.push_back(fe);
            self.fetch_pc = next_pc;
            if end_group {
                break;
            }
        }
    }

    // ----------------------------------------------------------- rename

    fn requires_iq(inst: &Inst) -> bool {
        !matches!(inst.op, Opcode::Nop | Opcode::Halt | Opcode::EosJmp)
    }

    fn iq_class(inst: &Inst) -> IqClass {
        if inst.op.is_fp() {
            IqClass::Fp
        } else {
            IqClass::Int
        }
    }

    /// Can the frontend's next instruction rename this cycle? The single
    /// source of truth for the rename stage's structural hazards, shared
    /// by `rename_stage` (which acts on it) and `rename_wake` (which
    /// reports quiescence from it) so the two can never disagree.
    #[inline]
    fn rename_gate(&self, inst: &Inst) -> RenameGate {
        if self.rob.is_full() {
            return RenameGate::Blocked;
        }
        if Self::requires_iq(inst) {
            let (occupancy, cap) = match Self::iq_class(inst) {
                IqClass::Int => (self.iq_count_int, self.config.core.int_iq_entries),
                IqClass::Fp => (self.iq_count_fp, self.config.core.fp_iq_entries),
            };
            if occupancy >= cap {
                return RenameGate::Blocked;
            }
        }
        if inst.op.is_load() && !self.lsq.can_alloc_load() {
            return RenameGate::Blocked;
        }
        if inst.op.is_store() && !self.lsq.can_alloc_store() {
            return RenameGate::Blocked;
        }
        let is_sjmp_active = inst.is_sjmp() && self.config.mode == SecurityMode::Sempe;
        if is_sjmp_active && !self.unit.can_issue_sjmp() {
            // Either a transient stall (the previous sJMP has not
            // committed its jbTable entry yet, or a wrong path will be
            // squashed) or a genuine nesting overflow. It is genuine
            // exactly when nothing older remains that could squash us:
            // the paper makes this a run-time exception (§IV-E).
            if self.unit.jbtable().depth() >= self.unit.jbtable().capacity() && self.rob.is_empty()
            {
                return RenameGate::NestingFault;
            }
            return RenameGate::Blocked;
        }
        if let Some(rd) = inst.dest() {
            let free =
                if rd.is_fp() { self.rename.free_fp_count() } else { self.rename.free_int_count() };
            if free == 0 {
                return RenameGate::Blocked;
            }
        }
        RenameGate::Proceed
    }

    fn rename_stage(&mut self) -> Result<(), SimError> {
        if self.cycle < self.rename_stall_until || self.rename_blocked_on.is_some() {
            self.stats.drain_stall_cycles += 1;
            return Ok(());
        }
        for _ in 0..self.config.core.rename_width {
            let Some(fe) = self.frontend.front() else { break };
            if fe.ready_cycle > self.cycle {
                break;
            }
            let inst = fe.inst;
            match self.rename_gate(&inst) {
                RenameGate::Blocked => break,
                RenameGate::NestingFault => {
                    return Err(SimError::Sempe(SempeFault::NestingOverflow {
                        capacity: self.unit.jbtable().capacity(),
                    }));
                }
                RenameGate::Proceed => {}
            }
            let is_sjmp_active = inst.is_sjmp() && self.config.mode == SecurityMode::Sempe;

            let fe = self.frontend.pop_front().expect("peeked above");
            let mut entry = RobEntry::new(fe.seq, fe.pc, inst, fe.len);
            entry.pred_taken = fe.pred_taken;
            entry.pred_target = fe.pred_target;
            entry.ghr_before = fe.ghr_before;
            entry.ras = fe.ras;

            // Sources resolve against the pre-rename RAT.
            let srcs = inst.sources();
            let rs1 = srcs[0].map(|r| self.rename.map(r));
            let rs2 = srcs[1].map(|r| self.rename.map(r));
            let old_dest = if inst.reads_dest() && !inst.rd.is_zero() {
                Some(self.rename.map(inst.rd))
            } else {
                None
            };
            if let Some(rd) = inst.dest() {
                let (fresh, old) = self.rename.rename_dest(rd).expect("gated above");
                entry.phys_dest = Some(fresh);
                entry.old_phys = Some(old);
            }
            if inst.op.is_store() {
                entry.store_id = self.lsq.alloc_store(fe.seq);
            }
            if inst.op.is_load() {
                self.lsq.alloc_load();
            }
            if is_sjmp_active {
                self.unit.on_sjmp_issue()?;
                entry.is_sjmp = true;
            }

            let needs_iq = Self::requires_iq(&inst);
            if !needs_iq {
                entry.done = true;
            }
            let seq = entry.seq;
            let slot = self.rob.push(entry).expect("gated above");
            // Squash-recovery checkpoint for everything that can
            // mispredict.
            if (inst.op.is_cond_branch() && !is_sjmp_active) || inst.op == Opcode::Jalr {
                self.rat_checkpoints[slot] = self.rename.checkpoint();
            }
            if needs_iq {
                self.iq_insert(slot, seq, Self::iq_class(&inst), [rs1, rs2, old_dest]);
            }
            self.stats.renamed += 1;

            if is_sjmp_active && self.config.sempe.drains_enabled {
                // Drain #1: nothing younger renames until the sJMP commits
                // and the initial snapshot is in the scratchpad. The
                // drainless ablation (insecure: a real part could not
                // snapshot a moving register file) skips the block.
                self.rename_blocked_on = Some(seq);
                break;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ issue

    fn op_latency(l: &LatencyConfig, op: Opcode) -> u64 {
        match op {
            Opcode::Mul => l.mul,
            Opcode::Div | Opcode::Rem | Opcode::Divu | Opcode::Remu => l.div,
            Opcode::Fadd | Opcode::Fsub => l.fp_add,
            Opcode::Fmul => l.fp_mul,
            Opcode::Fdiv => l.fp_div,
            op if op.is_cond_branch() => l.branch,
            Opcode::Jal | Opcode::Jalr => l.branch,
            _ => l.alu,
        }
    }

    /// Reference readiness check; the wakeup machinery must agree with it
    /// (asserted in debug builds at selection time).
    fn entry_ready(&self, e: &IqEntry) -> bool {
        [e.rs1, e.rs2, e.old_dest].iter().flatten().all(|p| self.rename.is_ready(*p))
    }

    /// Insert a renamed µop into the issue queue at its ROB slot,
    /// registering wakeup records for every source register that is not
    /// yet ready. `srcs` are `rs1`, `rs2` and the old destination.
    fn iq_insert(&mut self, slot: RobSlot, seq: u64, class: IqClass, srcs: [Option<PhysReg>; 3]) {
        let mut pending = 0u8;
        for p in srcs.into_iter().flatten() {
            if !self.rename.is_ready(p) {
                pending += 1;
                self.reg_waiters[p as usize].push((slot as u32, seq));
            }
        }
        let [rs1, rs2, old_dest] = srcs;
        self.iq[slot] = IqEntry { seq, rs1, rs2, old_dest, pending, class, active: true };
        match class {
            IqClass::Int => self.iq_count_int += 1,
            IqClass::Fp => self.iq_count_fp += 1,
        }
        if pending == 0 {
            self.set_ready(slot);
        }
    }

    fn set_ready(&mut self, slot: RobSlot) {
        self.iq_ready[slot / 64] |= 1 << (slot % 64);
    }

    /// A physical register was written back: wake the µops waiting on it.
    fn wake_reg(&mut self, p: PhysReg) {
        if self.reg_waiters[p as usize].is_empty() {
            return;
        }
        let mut list = std::mem::take(&mut self.reg_waiters[p as usize]);
        for (slot, seq) in list.drain(..) {
            let e = &mut self.iq[slot as usize];
            if !e.active || e.seq != seq {
                continue; // squashed (and possibly reused) since it slept
            }
            e.pending -= 1;
            if e.pending == 0 {
                self.set_ready(slot as RobSlot);
            }
        }
        // Hand the (empty) buffer back so its capacity is reused.
        self.reg_waiters[p as usize] = list;
    }

    /// Release an issue-queue entry (issue or squash).
    fn iq_release(&mut self, slot: RobSlot) {
        let e = &mut self.iq[slot];
        debug_assert!(e.active);
        e.active = false;
        match e.class {
            IqClass::Int => self.iq_count_int -= 1,
            IqClass::Fp => self.iq_count_fp -= 1,
        }
        self.iq_ready[slot / 64] &= !(1 << (slot % 64));
    }

    /// Select among the ready entries only, oldest first: ROB slots from
    /// the head round to the tail, the same order as sorting by `seq`.
    fn issue_stage(&mut self) {
        if !self.any_ready() {
            return;
        }
        let (cap, head) = (self.rob.capacity(), self.rob.head_slot());
        let mut issued_total = 0usize;
        let mut issued_loads = 0usize;
        for (lo, hi) in [(head, cap), (0, head)] {
            let mut base = lo - lo % 64;
            while base < hi {
                let mut bits = self.iq_ready[base / 64];
                if base < lo {
                    bits &= !0 << (lo - base);
                }
                if hi - base < 64 {
                    bits &= (1 << (hi - base)) - 1;
                }
                while bits != 0 {
                    if issued_total >= self.config.core.issue_width {
                        return;
                    }
                    let slot = base + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.try_issue(slot, &mut issued_loads) {
                        issued_total += 1;
                    }
                }
                base += 64;
            }
        }
    }

    /// Issue the ready µop at `slot` unless a structural hazard holds it
    /// back this cycle.
    fn try_issue(&mut self, slot: RobSlot, issued_loads: &mut usize) -> bool {
        let iq = self.iq[slot];
        debug_assert!(iq.active && self.entry_ready(&iq), "ready mask out of sync");
        let op = self.rob.get(slot).expect("queued µop is live").inst.op;
        if op.is_load() {
            if *issued_loads >= self.config.core.load_issue_width {
                return false;
            }
            *issued_loads += 1;
        }
        // Dividers are single, non-pipelined units (structural
        // hazard): one op occupies the unit for its full latency.
        match op {
            Opcode::Div | Opcode::Rem | Opcode::Divu | Opcode::Remu => {
                if self.cycle < self.int_div_busy_until {
                    return false;
                }
                self.int_div_busy_until = self.cycle + self.config.lat.div;
            }
            Opcode::Fdiv => {
                if self.cycle < self.fp_div_busy_until {
                    return false;
                }
                self.fp_div_busy_until = self.cycle + self.config.lat.fp_div;
            }
            _ => {}
        }
        self.execute_uop(slot, &iq);
        self.iq_release(slot);
        self.stats.issued += 1;
        true
    }

    /// Schedule the completion of the µop in `slot` for `cycle`; its
    /// payload (`wb`, `result`) is already in the ROB entry. Events are
    /// scheduled by stages that run *after* the complete stage within a
    /// tick, so the earliest a new event can fire is the next cycle —
    /// clamping keeps that invariant explicit (and preserves the old scan
    /// semantics for hypothetical zero-latency configurations).
    fn schedule(&mut self, seq: u64, slot: RobSlot, cycle: u64) {
        let due = cycle.max(self.cycle + 1);
        self.events.push(self.cycle, due, Event::new(seq, slot));
    }

    /// Begin execution of one µop: compute functionally, record the
    /// completion's payload in its ROB entry, and schedule it.
    fn execute_uop(&mut self, slot: RobSlot, iq: &IqEntry) {
        let read = |p: Option<PhysReg>| p.map_or(0, |p| self.rename.value(p));
        let v1 = read(iq.rs1);
        let v2 = read(iq.rs2);
        let vold = read(iq.old_dest);
        let seq = iq.seq;
        let agu = self.config.lat.agu;
        let Some(e) = self.rob.get_checked(slot, seq) else { return };
        let inst = e.inst;
        let len = e.len as usize;
        let next_pc = e.next_pc();
        let lat = Self::op_latency(&self.config.lat, inst.op);

        let latency = match inst.op {
            op if op.is_load() => {
                e.mem_addr = v1.wrapping_add(inst.imm as u64);
                None
            }
            op if op.is_store() => {
                e.mem_addr = v1.wrapping_add(inst.imm as u64);
                e.result = v2;
                e.wb = Writeback::Store;
                Some(agu)
            }
            op if op.is_cond_branch() => {
                let taken = branch_taken(op, v1, v2);
                let target = inst.branch_target(e.pc, len);
                e.actual_taken = taken;
                // For an sJMP the jbTable consumes the *taken-path* entry
                // address whatever the outcome.
                e.actual_target = if e.is_sjmp || taken { target } else { next_pc };
                e.mispredicted = !e.is_sjmp && taken != e.pred_taken;
                e.wb = Writeback::Branch;
                Some(lat)
            }
            Opcode::Jal => {
                e.actual_taken = true;
                e.actual_target = inst.branch_target(e.pc, len);
                e.mispredicted = false;
                e.result = next_pc;
                e.wb = Writeback::Branch;
                Some(lat)
            }
            Opcode::Jalr => {
                let target = v1.wrapping_add(inst.imm as u64);
                e.actual_taken = true;
                e.actual_target = target;
                e.mispredicted = target != e.pred_target;
                e.result = next_pc;
                e.wb = Writeback::Branch;
                Some(lat)
            }
            _ => {
                // Computational op.
                let b = match inst.op.format() {
                    Format::R3 => v2,
                    _ => inst.imm as u64,
                };
                match eval_op(&inst, v1, b, vold) {
                    Ok(value) => {
                        e.result = value;
                        e.wb = if e.phys_dest.is_some() { Writeback::Reg } else { Writeback::None };
                    }
                    Err(IntFault::DivideByZero) => {
                        e.div_fault = true;
                        e.wb = Writeback::None;
                    }
                }
                Some(lat)
            }
        };
        match latency {
            Some(lat) => self.schedule(seq, slot, self.cycle + lat),
            None => self.start_load(seq, slot, agu),
        }
    }

    /// Run the LSQ check for a load whose address is in its ROB entry:
    /// schedule its completion, or park it on the store that blocks it.
    fn start_load(&mut self, seq: u64, slot: RobSlot, agu: u64) {
        let e = self.rob.get(slot).expect("issuing load is live");
        let width = access_width(e.inst.op);
        match self.lsq.check_load(seq, e.mem_addr, width) {
            LoadCheck::Wait(blocker) => {
                self.stats.load_replays += 1;
                self.lsq.park(blocker);
                self.replay.push(ParkedLoad { seq, slot, blocker });
            }
            verdict => self.serve_load(seq, slot, verdict, agu),
        }
    }

    /// Complete a load whose store-queue verdict is `Forward` or
    /// `Proceed`: take the forwarded value or read memory through the
    /// DL1, and schedule the writeback.
    fn serve_load(&mut self, seq: u64, slot: RobSlot, verdict: LoadCheck, agu: u64) {
        let e = self.rob.get(slot).expect("served load is live");
        let (pc, addr, width) = (e.pc, e.mem_addr, access_width(e.inst.op));
        let (value, latency) = match verdict {
            LoadCheck::Forward(value) => (value, 1),
            LoadCheck::Proceed => {
                let value = semantics::load(&self.mem, width, addr);
                let r = self.hier.data_access(pc, addr, false);
                self.trace_cache(CacheLevel::Dl1, r);
                (value, r.latency)
            }
            LoadCheck::Wait(_) => unreachable!("waiting loads are parked, not served"),
        };
        let e = self.rob.get_checked(slot, seq).expect("served load is live");
        e.result = value;
        e.wb = Writeback::Load;
        self.schedule(seq, slot, self.cycle + agu + latency);
    }

    /// The replay pass. It runs on every cycle the store queue changed
    /// while loads are parked — the cycles a full rescan of every parked
    /// load would have run — but re-checks, in park order, only the
    /// loads whose blocker settled: for every other load the rescan's
    /// verdict is the same `Wait`. `load_replays` counts what the rescan
    /// would have: one replay per load still parked after the pass.
    fn replay_loads(&mut self) {
        if self.replay.is_empty() || self.lsq.version() == self.replay_lsq_version {
            return;
        }
        self.replay_lsq_version = self.lsq.version();
        // Walk the parked loads only when some blocker actually moved.
        let woken = self.lsq.take_woken();
        let mut i = 0;
        while woken && i < self.replay.len() {
            let p = self.replay[i];
            if !self.lsq.settled(p.blocker) {
                i += 1;
                continue;
            }
            self.lsq.unpark(p.blocker);
            let e = self.rob.get(p.slot).expect("parked load is live");
            match self.lsq.check_load(p.seq, e.mem_addr, access_width(e.inst.op)) {
                LoadCheck::Wait(blocker) => {
                    self.lsq.park(blocker);
                    self.replay[i].blocker = blocker;
                    i += 1;
                }
                verdict => {
                    self.replay.remove(i);
                    // Replays already paid the AGU.
                    self.serve_load(p.seq, p.slot, verdict, 0);
                }
            }
        }
        self.stats.load_replays += self.replay.len() as u64;
    }

    // --------------------------------------------------------- complete

    fn complete_stage(&mut self) {
        // Everything due now, in program (seq) order.
        let mut due = std::mem::take(&mut self.due_scratch);
        self.events.drain_due(self.cycle, &mut due);
        for ev in &due {
            let slot = ev.slot as RobSlot;
            // Validate against squashes that happened since scheduling.
            let Some(e) = self.rob.get_checked(slot, ev.seq) else { continue };
            e.done = true;
            let (phys, result) = (e.phys_dest, e.result);
            match e.wb {
                Writeback::None => {}
                Writeback::Reg => self.writeback(phys, result),
                Writeback::Load => {
                    self.writeback(phys, result);
                    self.lsq.release_load();
                }
                Writeback::Store => {
                    let (id, addr, width) = (e.store_id, e.mem_addr, access_width(e.inst.op));
                    self.lsq.resolve_store(id, addr, result, width);
                }
                Writeback::Branch => {
                    let mispredicted = e.mispredicted;
                    self.writeback(phys, result);
                    if mispredicted {
                        self.squash_from(slot, ev.seq);
                    }
                }
            }
        }
        self.due_scratch = due;
    }

    /// Write a produced value back (if the µop has a destination) and
    /// wake the µops waiting on it.
    fn writeback(&mut self, phys: Option<PhysReg>, value: u64) {
        if let Some(p) = phys {
            self.rename.write(p, value);
            self.wake_reg(p);
        }
    }

    /// Squash everything younger than the mispredicting branch in `slot`
    /// and restart fetch down the correct path.
    fn squash_from(&mut self, slot: RobSlot, seq: u64) {
        self.stats.squashes += 1;
        let e = self.rob.get(slot).expect("squash source exists");
        debug_assert_eq!(e.seq, seq);
        let (redirect_to, ghr_before, ras, is_cond, actual_taken) =
            (e.actual_target, e.ghr_before, e.ras, e.inst.op.is_cond_branch(), e.actual_taken);
        // The squashed snapshots are the youngest in the ring: release
        // from the oldest of them.
        let mut oldest_dead_ras = self.frontend.iter().find_map(|fe| fe.ras);
        while let Some((dead_slot, dead)) = self.rob.pop_younger(seq) {
            if self.iq[dead_slot].active {
                self.iq_release(dead_slot);
            }
            if let Some(p) = dead.phys_dest {
                self.rename.free(p);
            }
            if dead.inst.op.is_load() && !dead.done {
                // Its LQ slot is still held iff the load hasn't completed.
                // Completed loads released at writeback; parked loads or
                // in-flight cache accesses still hold a slot.
                self.lsq.release_load();
            }
            if dead.is_sjmp {
                self.unit.on_sjmp_squash();
            }
            if dead.ras.is_some() {
                oldest_dead_ras = dead.ras;
            }
        }
        if let Some(h) = oldest_dead_ras {
            self.ras_checkpoints.release_from(h);
        }
        // Restore the RAT from the branch's checkpoint.
        self.rename.restore(&self.rat_checkpoints[slot]);
        // Drop queue state belonging to squashed µops. Waiter records
        // referring to released entries invalidate lazily via their
        // (slot, seq) tags.
        for p in &self.replay {
            if p.seq > seq {
                self.lsq.unpark(p.blocker);
            }
        }
        self.replay.retain(|p| p.seq <= seq);
        self.events.squash_younger(seq);
        self.lsq.squash_younger(seq);
        self.frontend.clear();
        // Predictor recovery. Only a branch fetched with no RAS snapshot
        // recovers to an empty stack.
        let snapshot = ras.map_or(&[][..], |h| self.ras_checkpoints.get(h));
        if is_cond {
            self.bp.recover_cond(ghr_before, actual_taken, snapshot);
        } else {
            self.bp.recover_indirect(ghr_before, snapshot);
        }
        // Rename block held by a squashed sJMP dissolves.
        if self.rename_blocked_on.is_some_and(|b| b > seq) {
            self.rename_blocked_on = None;
        }
        // Fetch restart.
        self.fetch_pc = redirect_to;
        self.fetch_block = FetchBlock::None;
        self.last_fetch_line = None;
        self.fetch_stall_until = self.cycle + self.config.core.mispredict_penalty;
        self.trace_event(TraceEvent::Redirect { target: redirect_to });
    }

    // ------------------------------------------------------------ commit

    fn commit_stage(&mut self) -> Result<(), SimError> {
        for _ in 0..self.config.core.retire_width {
            let Some(head) = self.rob.head() else { break };
            if !head.done {
                break;
            }
            if head.div_fault {
                let fault = ExecError::DivideByZero { pc: head.pc };
                // An architectural fault reached commit: in a SecBlock the
                // paper routes this to the exception handler (§IV-G); we
                // surface it either way.
                if self.unit.in_secure_region() {
                    return Err(SimError::Sempe(SempeFault::FaultInSecBlock {
                        pc: head.pc,
                        what: fault.to_string(),
                    }));
                }
                return Err(SimError::Exec(fault));
            }

            let entry = self.rob.pop_head().expect("head exists");
            if let Some(h) = entry.ras {
                self.ras_checkpoints.release_oldest(h);
            }
            self.last_commit_cycle = self.cycle;
            self.stats.committed += 1;
            if self.unit.in_secure_region() {
                self.stats.secure_committed += 1;
            }
            // Explicit measurement window: ROI opens at the commit of
            // instruction `skip + 1` and closes at `skip + insts`.
            // Commit-anchored, so the accounting is identical across
            // stepping modes (skip never moves commit cycles).
            if let Roi::Window { skip, insts } = self.config.roi {
                if insts > 0 {
                    if self.stats.committed == skip.saturating_add(1) {
                        self.roi_open_cycle = Some(self.cycle);
                    }
                    if self.stats.committed == skip.saturating_add(insts) {
                        self.close_roi_span();
                        if self.config.stepping == Stepping::Tiered {
                            self.tier_detailed = !self.ff_permitted();
                        }
                    }
                }
            }
            self.trace_event(TraceEvent::Commit { pc: entry.pc });

            // Register state.
            if let Some(p) = entry.phys_dest {
                let rd = entry.inst.rd;
                debug_assert!(self.rename.is_ready(p), "commit of not-ready dest");
                self.arch_regs[rd.index()] = self.rename.value(p);
                if self.unit.in_secure_region() {
                    self.unit.note_commit_write(rd);
                }
            }
            if let Some(old) = entry.old_phys {
                self.rename.free(old);
            }

            // Memory state.
            if entry.inst.op.is_load() {
                self.trace_event(TraceEvent::MemRead { addr: entry.mem_addr });
            }
            if entry.inst.op.is_store() {
                let s = self.lsq.commit_store(entry.store_id).expect("store present at commit");
                let addr = s.addr.expect("resolved before done");
                semantics::store(&mut self.mem, s.width, addr, s.data);
                let r = self.hier.data_access(entry.pc, addr, true);
                self.trace_cache(CacheLevel::Dl1, r);
                self.trace_event(TraceEvent::MemWrite { addr });
            }

            // Control state.
            match entry.inst.op {
                op if op.is_cond_branch() => {
                    if entry.is_sjmp {
                        let was_outside = !self.unit.in_secure_region();
                        // Secure branch: no predictor interaction at all.
                        let eff = self.unit.on_sjmp_commit(
                            entry.actual_target,
                            entry.actual_taken,
                            &self.arch_regs,
                        )?;
                        // An outermost sJMP commit opens an ROI span.
                        if was_outside && self.config.roi == Roi::Regions {
                            self.roi_open_cycle = Some(self.cycle);
                        }
                        // Drain #1 + initial snapshot spill: rename resumes
                        // after the scratchpad transfer. The drainless
                        // ablation overlaps the spill with execution.
                        if self.config.sempe.drains_enabled {
                            debug_assert!(self.rename_blocked_on == Some(entry.seq));
                            self.rename_blocked_on = None;
                            self.rename_stall_until = self.cycle + eff.spm_cycles;
                        }
                        break; // region boundary: stop committing this cycle
                    } else {
                        self.bp.commit_cond(entry.pc, entry.ghr_before, entry.actual_taken);
                        self.trace_event(TraceEvent::BpredUpdate {
                            pc: entry.pc,
                            taken: entry.actual_taken,
                        });
                    }
                }
                Opcode::Jalr => {
                    let is_ret = entry.inst.rd == Reg::X0 && entry.inst.rs1 == Reg::RA;
                    if !is_ret {
                        self.bp.commit_indirect(entry.pc, entry.ghr_before, entry.actual_target);
                    }
                }
                Opcode::EosJmp => {
                    debug_assert!(self.rob.is_empty(), "eosJMP commits into a drained window");
                    let eff = self.unit.on_eosjmp_commit(&mut self.arch_regs)?;
                    // Resynchronize the physical file with the restored
                    // architectural state (window is empty, so this is the
                    // hardware's RAT rebuild).
                    for r in Reg::all() {
                        self.rename.poke_arch(r, self.arch_regs[r.index()]);
                    }
                    let target = eff.redirect.unwrap_or_else(|| entry.next_pc());
                    self.fetch_pc = target;
                    self.fetch_block = FetchBlock::None;
                    self.last_fetch_line = None;
                    self.fetch_stall_until =
                        self.cycle + self.config.core.eos_redirect_penalty + eff.spm_cycles;
                    self.trace_event(TraceEvent::Redirect { target });
                    // The eosJMP that returns to depth zero closes the
                    // region's ROI span, and (tiered) re-opens the
                    // fast-forward gate unless an explicit window says
                    // otherwise. The machine is quiesced right after
                    // this commit — the natural handoff point.
                    if !self.unit.in_secure_region() {
                        if self.config.roi == Roi::Regions {
                            self.close_roi_span();
                        }
                        if self.config.stepping == Stepping::Tiered {
                            self.tier_detailed = !self.ff_permitted();
                        }
                    }
                    break; // drain boundary
                }
                Opcode::Halt => {
                    self.halted = true;
                    self.trace.total_cycles = self.cycle;
                    // A HALT inside an open ROI (window never closed, or
                    // a region left unterminated) closes the span here
                    // so partial ROIs are still accounted.
                    self.close_roi_span();
                    break;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Close the currently open ROI span (if any) at the current cycle:
    /// account `roi_cycles` and record the span.
    fn close_roi_span(&mut self) {
        if let Some(open) = self.roi_open_cycle.take() {
            self.stats.roi_cycles += self.cycle - open;
            self.roi_spans.push((open, self.cycle));
        }
    }
}

/// A self-contained snapshot of a quiesced [`Simulator`]: full
/// architectural state (registers, memory) plus every persistent piece
/// of microarchitectural state (RAT and physical register files, branch
/// predictor tables, cache hierarchy and prefetchers, SeMPE unit,
/// statistics baseline, observation trace) and the shared decoded
/// program.
///
/// Created by [`Simulator::checkpoint`]; consumed by
/// [`Simulator::restore_from`] / [`Simulator::from_checkpoint`]. Share
/// one checkpoint (e.g. behind an `Arc`) across a worker pool and every
/// worker forks trials from it without re-parsing, re-compiling,
/// re-decoding, or re-growing a simulator.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    config: SimConfig,
    prog: Arc<DecodedProgram>,
    mem: MemSnapshot,
    cycle: u64,
    seq_counter: u64,
    halted: bool,
    fetch_pc: Addr,
    fetch_stall_until: u64,
    fetch_block: FetchBlock,
    last_fetch_line: Option<u64>,
    bp: BranchPredictor,
    rename: RenameState,
    rename_stall_until: u64,
    int_div_busy_until: u64,
    fp_div_busy_until: u64,
    lsq_forwards: u64,
    hier: MemHierarchy,
    arch_regs: [u64; NUM_ARCH_REGS],
    unit: SempeUnit,
    tier_detailed: bool,
    roi_open_cycle: Option<u64>,
    roi_spans: Vec<(u64, u64)>,
    trace: ObservationTrace,
    stats: SimStats,
    last_commit_cycle: u64,
}

impl Checkpoint {
    /// The configuration the checkpointed machine runs under.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The shared decoded program.
    #[must_use]
    pub fn decoded(&self) -> &Arc<DecodedProgram> {
        &self.prog
    }

    /// Pages captured in the memory snapshot.
    #[must_use]
    pub fn mem_pages(&self) -> usize {
        self.mem.page_count()
    }
}

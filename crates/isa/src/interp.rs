//! Reference interpreters for SIR programs.
//!
//! Two personalities:
//!
//! * [`InterpMode::Legacy`] — executes the program the way a pre-SeMPE
//!   processor would: the SecPrefix is ignored, sJMP behaves as a plain
//!   conditional branch and eosJMP as a NOP. This is the **architectural
//!   oracle**: every execution engine in the workspace (including the
//!   cycle-level simulator in any mode) must agree with it on final
//!   observable state.
//! * [`InterpMode::SempeFunctional`] — executes the functional semantics
//!   of SeMPE hardware: for every sJMP, the not-taken path runs first,
//!   registers are snapshotted/merged exactly as §IV-F describes, and the
//!   taken path runs afterwards. Final state must equal the Legacy run
//!   (on well-formed, privatized programs). The per-path instruction
//!   counts it gathers define the paper's *ideal overhead* (§IV-A: the
//!   minimum secure execution is all instructions of all paths).
//!
//! Both personalities execute through the shared kernel
//! [`crate::semantics::step`]; the interpreter itself handles only `HALT`,
//! the SeMPE-mode sJMP and eosJMP, and the [`RunSummary`] counting. Its kernel
//! observer marks each register a secure path writes, which is what the
//! eosJMP merge restores.

use crate::decode::DecodeMode;
use crate::error::ExecError;
use crate::mem::Memory;
use crate::opcode::Opcode;
use crate::program::{layout, DecodedProgram, Program};
use crate::reg::{Reg, NUM_ARCH_REGS};
use crate::semantics::{self, branch_taken, Observer};
use crate::Addr;

/// Which semantics the interpreter applies to secure instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterpMode {
    /// SecPrefix ignored: sJMP is a branch, eosJMP a NOP.
    Legacy,
    /// Full SeMPE functional semantics: both paths execute.
    SempeFunctional,
}

/// Default maximum secure-branch nesting depth (the paper's 30-snapshot
/// scratchpad memory).
pub const DEFAULT_MAX_NESTING: usize = 30;

/// Execution statistics returned by [`Interp::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Total instructions executed (committed).
    pub committed: u64,
    /// Instructions executed while at least one secure region was active.
    pub secure_insts: u64,
    /// sJMPs executed (in SeMPE mode, each pushes a jump-back frame).
    pub sjmp_count: u64,
    /// eosJMP visits (twice per secure region in SeMPE mode).
    pub eosjmp_count: u64,
    /// Deepest secure nesting observed.
    pub max_nesting: usize,
    /// Did the program reach `HALT`?
    pub halted: bool,
}

/// One active secure region (software model of a jbTable entry plus its
/// ArchRS scratchpad slot).
#[derive(Debug, Clone)]
struct SecFrame {
    /// Entry address of the taken path (the sJMP's target).
    target: Addr,
    /// Branch outcome: `true` when the *taken* path is the correct one.
    taken: bool,
    /// Set after the first eosJMP visit (execution jumped back).
    jumped_back: bool,
    /// Register file snapshot taken before entering the SecBlock.
    initial: [u64; NUM_ARCH_REGS],
    /// Register file snapshot taken after the not-taken path.
    nt_values: [u64; NUM_ARCH_REGS],
    /// Bit `i` set when architectural register `i` was written during the
    /// not-taken path.
    nt_modified: u64,
    /// Same, for the taken path.
    t_modified: u64,
}

/// The kernel observer of a SeMPE-functional run: a register write marks
/// the register modified in the *current path* of every active secure
/// region. Outer levels must see modifications made by inner regions so
/// their merge restores correctly (conservative marking is always safe:
/// re-restoring an unchanged value is a no-op).
impl Observer for Vec<SecFrame> {
    fn on_write(&mut self, rd: Reg) {
        mark_modified(self, 1 << rd.index());
    }
}

/// Mark the registers in `mask` modified in the current path of `frames`.
fn mark_modified(frames: &mut [SecFrame], mask: u64) {
    for frame in frames {
        if frame.jumped_back {
            frame.t_modified |= mask;
        } else {
            frame.nt_modified |= mask;
        }
    }
}

/// A SIR interpreter.
///
/// # Examples
///
/// ```
/// use sempe_isa::asm::Asm;
/// use sempe_isa::interp::{Interp, InterpMode};
/// use sempe_isa::reg::abi;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.movi(abi::A[0], 21);
/// a.add(abi::A[0], abi::A[0], abi::A[0]);
/// a.halt();
/// let prog = a.assemble()?;
///
/// let mut interp = Interp::new(&prog, InterpMode::Legacy)?;
/// let summary = interp.run(1_000)?;
/// assert!(summary.halted);
/// assert_eq!(interp.reg(abi::A[0]), 42);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Interp {
    prog: DecodedProgram,
    mode: InterpMode,
    regs: [u64; NUM_ARCH_REGS],
    pc: Addr,
    mem: Memory,
    frames: Vec<SecFrame>,
    max_nesting: usize,
    halted: bool,
    stats: RunSummary,
}

impl Interp {
    /// Build an interpreter for `prog`, loading code and data into a fresh
    /// memory and decoding with the front end matching `mode`.
    ///
    /// # Errors
    ///
    /// Propagates decode failures as [`ExecError::Decode`].
    pub fn new(prog: &Program, mode: InterpMode) -> Result<Self, ExecError> {
        let decode_mode = match mode {
            InterpMode::Legacy => DecodeMode::Legacy,
            InterpMode::SempeFunctional => DecodeMode::Sempe,
        };
        let decoded = prog.decoded(decode_mode)?;
        let mut mem = Memory::new();
        prog.load_into(&mut mem);
        let mut regs = [0u64; NUM_ARCH_REGS];
        regs[Reg::SP.index()] = layout::STACK_TOP;
        Ok(Interp {
            pc: decoded.entry(),
            prog: decoded,
            mode,
            regs,
            mem,
            frames: Vec::new(),
            max_nesting: DEFAULT_MAX_NESTING,
            halted: false,
            stats: RunSummary::default(),
        })
    }

    /// Override the maximum supported secure nesting depth (default 30,
    /// matching the paper's scratchpad provisioning).
    pub fn set_max_nesting(&mut self, depth: usize) {
        self.max_nesting = depth;
    }

    /// Current program counter.
    #[must_use]
    pub fn pc(&self) -> Addr {
        self.pc
    }

    /// Read an architectural register (`x0` reads as zero).
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Set an architectural register (writes to `x0` are discarded).
    pub fn set_reg(&mut self, r: Reg, val: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = val;
        }
    }

    /// The full architectural register file.
    #[must_use]
    pub fn regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.regs
    }

    /// Shared view of memory.
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable view of memory (e.g. to poke inputs before running).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> RunSummary {
        self.stats
    }

    /// Has the program executed `HALT`?
    #[must_use]
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Execute one instruction.
    ///
    /// Returns `true` while the program can continue, `false` once halted.
    ///
    /// # Errors
    ///
    /// Any [`ExecError`] raised by the instruction.
    pub fn step(&mut self) -> Result<bool, ExecError> {
        if self.halted {
            return Ok(false);
        }
        let pc = self.pc;
        let (inst, len) = self.prog.fetch(pc)?;
        let fall_through = pc + len as Addr;

        self.pc = match inst.op {
            Opcode::Halt => {
                self.halted = true;
                self.stats.halted = true;
                fall_through
            }
            Opcode::EosJmp => {
                self.stats.eosjmp_count += 1;
                self.exec_eosjmp(pc, fall_through)?
            }
            _ if inst.is_sjmp() && self.mode == InterpMode::SempeFunctional => {
                self.stats.sjmp_count += 1;
                if self.frames.len() >= self.max_nesting {
                    return Err(ExecError::SecureRegionFault {
                        pc,
                        reason: format!(
                            "secure nesting depth {} exceeds the supported {}",
                            self.frames.len() + 1,
                            self.max_nesting
                        ),
                    });
                }
                self.frames.push(SecFrame {
                    target: inst.branch_target(pc, len),
                    taken: branch_taken(inst.op, self.reg(inst.rs1), self.reg(inst.rs2)),
                    jumped_back: false,
                    initial: self.regs,
                    nt_values: [0; NUM_ARCH_REGS],
                    nt_modified: 0,
                    t_modified: 0,
                });
                self.stats.max_nesting = self.stats.max_nesting.max(self.frames.len());
                // Fall through: the not-taken path always runs first.
                fall_through
            }
            _ => semantics::step(inst, len, pc, &mut self.regs, &mut self.mem, &mut self.frames)?,
        };

        self.stats.committed += 1;
        if !self.frames.is_empty() {
            self.stats.secure_insts += 1;
        }
        Ok(!self.halted)
    }

    /// Handle an eosJMP visit per §IV-E/F.
    fn exec_eosjmp(&mut self, pc: Addr, fall_through: Addr) -> Result<Addr, ExecError> {
        debug_assert_eq!(self.mode, InterpMode::SempeFunctional);
        let top = self.frames.last_mut().ok_or_else(|| ExecError::SecureRegionFault {
            pc,
            reason: "eosJMP with no active secure region".to_string(),
        })?;
        if !top.jumped_back {
            // First visit: NT path is done. Save its register values,
            // restore the initial snapshot and jump back to the taken path.
            top.jumped_back = true;
            top.nt_values = self.regs;
            let target = top.target;
            let nt_modified = top.nt_modified;
            let initial = top.initial;
            #[allow(clippy::needless_range_loop)] // parallel mask/array walk
            for i in 0..NUM_ARCH_REGS {
                if nt_modified & (1 << i) != 0 {
                    self.regs[i] = initial[i];
                }
            }
            Ok(target)
        } else {
            // Second visit: T path is done. Merge according to the branch
            // outcome; the SPM is read for *all* modified registers either
            // way (constant-time), but the values only land when the
            // not-taken path was the correct one.
            let frame = self.frames.pop().expect("frame checked above");
            let merged = frame.nt_modified | frame.t_modified;
            if !frame.taken {
                #[allow(clippy::needless_range_loop)] // parallel mask/array walk
                for i in 0..NUM_ARCH_REGS {
                    if merged & (1 << i) != 0 {
                        self.regs[i] = if frame.nt_modified & (1 << i) != 0 {
                            frame.nt_values[i]
                        } else {
                            frame.initial[i]
                        };
                    }
                }
            }
            // Either way the current register values now stand, and
            // enclosing frames must observe the region's net modifications.
            mark_modified(&mut self.frames, merged);
            Ok(fall_through)
        }
    }

    /// Run until `HALT` or until `fuel` instructions have executed.
    ///
    /// # Errors
    ///
    /// [`ExecError::OutOfFuel`] if the budget expires first, or any fault
    /// raised by an instruction.
    pub fn run(&mut self, fuel: u64) -> Result<RunSummary, ExecError> {
        let mut remaining = fuel;
        while !self.halted {
            if remaining == 0 {
                return Err(ExecError::OutOfFuel);
            }
            remaining -= 1;
            self.step()?;
        }
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::reg::abi;

    /// if (a0 != 0) { a1 = 111 } else { a1 = 222 }, secure version with
    /// both sides writing the same register (privatization unnecessary
    /// because the merge handles registers).
    fn secure_select(secret: u64) -> Program {
        let mut a = Asm::new();
        let then_ = a.label("then");
        let join = a.label("join");
        a.movi(abi::A[0], secret as i64);
        a.sbne(abi::A[0], abi::ZERO, then_);
        // NT path (else): a1 = 222
        a.movi(abi::A[1], 222);
        a.jmp(join);
        a.bind(then_).unwrap();
        // T path: a1 = 111
        a.movi(abi::A[1], 111);
        a.bind(join).unwrap();
        a.eosjmp();
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn legacy_mode_treats_sjmp_as_branch() {
        for (secret, want) in [(0u64, 222u64), (1, 111)] {
            let prog = secure_select(secret);
            let mut i = Interp::new(&prog, InterpMode::Legacy).unwrap();
            let s = i.run(100).unwrap();
            assert!(s.halted);
            assert_eq!(i.reg(abi::A[1]), want, "secret={secret}");
            assert_eq!(s.sjmp_count, 0);
        }
    }

    #[test]
    fn sempe_mode_executes_both_paths_and_merges_correctly() {
        for (secret, want) in [(0u64, 222u64), (1, 111)] {
            let prog = secure_select(secret);
            let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
            let s = i.run(100).unwrap();
            assert!(s.halted);
            assert_eq!(i.reg(abi::A[1]), want, "secret={secret}");
            assert_eq!(s.sjmp_count, 1);
            assert_eq!(s.eosjmp_count, 2);
        }
    }

    #[test]
    fn sempe_mode_instruction_count_is_secret_independent() {
        let mut counts = Vec::new();
        for secret in [0u64, 1] {
            let prog = secure_select(secret);
            let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
            counts.push(i.run(100).unwrap().committed);
        }
        assert_eq!(counts[0], counts[1], "committed counts must not depend on the secret");
        // And the legacy counts differ (the leak SeMPE removes): here the
        // paths happen to be the same length, so compare against SeMPE
        // instead: both paths together execute strictly more.
        let prog = secure_select(0);
        let mut l = Interp::new(&prog, InterpMode::Legacy).unwrap();
        let legacy = l.run(100).unwrap().committed;
        assert!(counts[0] > legacy);
    }

    #[test]
    fn register_modified_only_in_true_taken_path_survives() {
        // if (1) { a2 = 7 } else {} — T path modifies a2, NT path doesn't.
        let mut a = Asm::new();
        let then_ = a.label("then");
        let join = a.label("join");
        a.movi(abi::A[0], 1);
        a.movi(abi::A[2], 5);
        a.sbne(abi::A[0], abi::ZERO, then_);
        a.jmp(join); // empty NT path
        a.bind(then_).unwrap();
        a.movi(abi::A[2], 7);
        a.bind(join).unwrap();
        a.eosjmp();
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
        i.run(100).unwrap();
        assert_eq!(i.reg(abi::A[2]), 7);
    }

    #[test]
    fn register_modified_only_in_false_taken_path_is_restored() {
        // if (0) { a2 = 7 } else {} — branch not taken, so the T path (a2=7)
        // is the *wrong* path; a2 must keep its pre-region value.
        let mut a = Asm::new();
        let then_ = a.label("then");
        let join = a.label("join");
        a.movi(abi::A[0], 0);
        a.movi(abi::A[2], 5);
        a.sbne(abi::A[0], abi::ZERO, then_);
        a.jmp(join);
        a.bind(then_).unwrap();
        a.movi(abi::A[2], 7);
        a.bind(join).unwrap();
        a.eosjmp();
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
        i.run(100).unwrap();
        assert_eq!(i.reg(abi::A[2]), 5, "wrong-path write must be undone");
    }

    #[test]
    fn nested_secure_regions_merge_outside_in() {
        // outer: if (s1) { a1 = 1 } else { inner: if (s2) { a1 = 2 } else { a1 = 3 } }
        fn build(s1: u64, s2: u64) -> Program {
            let mut a = Asm::new();
            let outer_then = a.label("outer_then");
            let outer_join = a.label("outer_join");
            let inner_then = a.label("inner_then");
            let inner_join = a.label("inner_join");
            a.movi(abi::A[0], s1 as i64);
            a.movi(abi::T[0], s2 as i64);
            a.sbne(abi::A[0], abi::ZERO, outer_then);
            // outer NT path: contains the inner secure region
            a.sbne(abi::T[0], abi::ZERO, inner_then);
            a.movi(abi::A[1], 3); // inner NT
            a.jmp(inner_join);
            a.bind(inner_then).unwrap();
            a.movi(abi::A[1], 2); // inner T
            a.bind(inner_join).unwrap();
            a.eosjmp();
            a.jmp(outer_join);
            a.bind(outer_then).unwrap();
            a.movi(abi::A[1], 1); // outer T
            a.bind(outer_join).unwrap();
            a.eosjmp();
            a.halt();
            a.assemble().unwrap()
        }
        for (s1, s2, want) in [(1u64, 0u64, 1u64), (1, 1, 1), (0, 1, 2), (0, 0, 3)] {
            let prog = build(s1, s2);
            let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
            let s = i.run(1000).unwrap();
            assert_eq!(i.reg(abi::A[1]), want, "s1={s1} s2={s2}");
            assert_eq!(s.max_nesting, 2);
            // Cross-check against the legacy oracle.
            let mut l = Interp::new(&prog, InterpMode::Legacy).unwrap();
            l.run(1000).unwrap();
            assert_eq!(l.reg(abi::A[1]), want);
        }
    }

    #[test]
    fn eosjmp_without_region_faults() {
        let mut a = Asm::new();
        a.eosjmp();
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
        let err = i.run(10).unwrap_err();
        assert!(matches!(err, ExecError::SecureRegionFault { .. }));
        // ...but it is a plain NOP for legacy parts.
        let mut l = Interp::new(&prog, InterpMode::Legacy).unwrap();
        assert!(l.run(10).unwrap().halted);
    }

    #[test]
    fn nesting_limit_faults() {
        let mut a = Asm::new();
        // Three nested secure branches, all taken-path-empty.
        let mut joins = Vec::new();
        for depth in 0..3 {
            let then_ = a.fresh_label("t");
            let join = a.fresh_label("j");
            a.sbne(abi::ZERO, abi::ZERO, then_); // never taken, NT first anyway
            joins.push((then_, join));
            let _ = depth;
        }
        for (then_, join) in joins.into_iter().rev() {
            a.jmp(join);
            a.bind(then_).unwrap();
            a.bind(join).unwrap();
            a.eosjmp();
        }
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::SempeFunctional).unwrap();
        i.set_max_nesting(2);
        let err = i.run(100).unwrap_err();
        assert!(matches!(err, ExecError::SecureRegionFault { .. }));
    }

    #[test]
    fn divide_by_zero_faults_with_pc() {
        let mut a = Asm::new();
        a.movi(abi::T[0], 9);
        a.div(abi::T[1], abi::T[0], abi::ZERO);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::Legacy).unwrap();
        let err = i.run(10).unwrap_err();
        assert!(matches!(err, ExecError::DivideByZero { .. }));
    }

    #[test]
    fn out_of_fuel_reports() {
        let mut a = Asm::new();
        let top = a.label("top");
        a.bind(top).unwrap();
        a.jmp(top);
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::Legacy).unwrap();
        assert_eq!(i.run(100).unwrap_err(), ExecError::OutOfFuel);
    }

    #[test]
    fn call_and_return_work() {
        let mut a = Asm::new();
        let func = a.label("func");
        let over = a.label("over");
        a.call(func);
        a.jmp(over);
        a.bind(func).unwrap();
        a.movi(abi::A[0], 99);
        a.ret();
        a.bind(over).unwrap();
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::Legacy).unwrap();
        assert!(i.run(100).unwrap().halted);
        assert_eq!(i.reg(abi::A[0]), 99);
    }

    #[test]
    fn memory_ops_roundtrip_through_program_data() {
        let mut a = Asm::new();
        let buf = a.data_words(&[5, 6, 7]);
        a.movi(abi::T[0], buf as i64);
        a.ld(abi::T[1], abi::T[0], 8); // loads 6
        a.addi(abi::T[1], abi::T[1], 10);
        a.st(abi::T[0], abi::T[1], 16); // stores 16
        a.halt();
        let prog = a.assemble().unwrap();
        let mut i = Interp::new(&prog, InterpMode::Legacy).unwrap();
        i.run(100).unwrap();
        assert_eq!(i.mem().read_u64(buf + 16), 16);
    }
}

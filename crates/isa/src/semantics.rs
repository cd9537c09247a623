//! Functional semantics of SIR instructions: the workspace's one
//! instruction-semantics kernel.
//!
//! [`step`] executes one instruction against an architectural register
//! file and memory and reports what it did to an [`Observer`]. Two
//! engines run on it: the reference interpreter
//! ([`crate::interp::Interp`]), whose observer marks the registers each
//! secure path modifies, and the simulator's functional fast-forward
//! tier, whose observer warms caches and branch predictors. The
//! cycle-level pipeline keeps its own out-of-order dispatch and shares
//! only the pieces under the kernel ([`eval_op`], [`branch_taken`],
//! [`access_width`], [`load`] and [`store`]), so the tiered-vs-detailed
//! differentials still check the kernel against an independent
//! implementation.
//!
//! Floating-point registers store `f64` bit patterns in the same 64-bit
//! register file as the integer registers, so every operand and result is a
//! `u64` here.

use crate::error::ExecError;
use crate::insn::Inst;
use crate::mem::Memory;
use crate::opcode::{Format, Opcode};
use crate::reg::{Reg, NUM_ARCH_REGS};
use crate::Addr;

/// What an execution engine learns from [`step`] besides the new
/// architectural state. Every hook defaults to a no-op, and [`step`] is
/// generic over the observer, so an engine pays only for the hooks it
/// overrides.
pub trait Observer {
    /// Register `rd` (never `x0`) was written.
    fn on_write(&mut self, _rd: Reg) {}
    /// A load at `pc` read `width` bytes at `addr`.
    fn on_load(&mut self, _pc: Addr, _addr: Addr, _width: u8) {}
    /// A store at `pc` wrote `width` bytes at `addr`.
    fn on_store(&mut self, _pc: Addr, _addr: Addr, _width: u8) {}
    /// A conditional branch at `pc` resolved `taken`.
    fn on_cond_branch(&mut self, _pc: Addr, _taken: bool) {}
    /// A call (`jal ra`); `return_addr` is its fall-through.
    fn on_call(&mut self, _return_addr: Addr) {}
    /// A return (`jalr x0, ra`) to `target`.
    fn on_return(&mut self, _target: Addr) {}
    /// Any other `jalr`, at `pc`, to `target`; `fallthrough` is its
    /// static fall-through.
    fn on_indirect(&mut self, _pc: Addr, _fallthrough: Addr, _target: Addr) {}
}

/// Execute `inst` (encoded in `len` bytes at `pc`) and return the next PC.
///
/// Covers `NOP`, loads, stores, conditional branches, `JAL`, `JALR` and
/// the computational ops. The SecPrefix is ignored, so an sJMP runs as a
/// plain conditional branch: secure-region control and `HALT` belong to
/// the caller. Writes to `x0` are discarded and not reported.
///
/// # Errors
///
/// [`ExecError::DivideByZero`] for `DIV`/`REM` with a zero divisor; the
/// registers, memory and observer are then untouched.
///
/// # Panics
///
/// On `HALT` and eosJMP, which the caller must handle first.
#[inline]
pub fn step<O: Observer>(
    inst: Inst,
    len: usize,
    pc: Addr,
    regs: &mut [u64; NUM_ARCH_REGS],
    mem: &mut Memory,
    obs: &mut O,
) -> Result<Addr, ExecError> {
    let read = |r: Reg| if r.is_zero() { 0 } else { regs[r.index()] };
    let (a, b) = (read(inst.rs1), read(inst.rs2));
    let fallthrough = pc.wrapping_add(len as Addr);
    Ok(match inst.op {
        Opcode::Nop => fallthrough,
        op if op.is_load() => {
            let addr = a.wrapping_add(inst.imm as u64);
            let width = access_width(op);
            let value = load(mem, width, addr);
            obs.on_load(pc, addr, width);
            write(regs, obs, inst.rd, value);
            fallthrough
        }
        op if op.is_store() => {
            let addr = a.wrapping_add(inst.imm as u64);
            let width = access_width(op);
            store(mem, width, addr, b);
            obs.on_store(pc, addr, width);
            fallthrough
        }
        op if op.is_cond_branch() => {
            let taken = branch_taken(op, a, b);
            obs.on_cond_branch(pc, taken);
            if taken {
                inst.branch_target(pc, len)
            } else {
                fallthrough
            }
        }
        Opcode::Jal => {
            if inst.rd == Reg::RA {
                obs.on_call(fallthrough);
            }
            write(regs, obs, inst.rd, fallthrough);
            inst.branch_target(pc, len)
        }
        Opcode::Jalr => {
            let target = a.wrapping_add(inst.imm as u64);
            if inst.rd == Reg::X0 && inst.rs1 == Reg::RA {
                obs.on_return(target);
            } else {
                obs.on_indirect(pc, fallthrough, target);
            }
            write(regs, obs, inst.rd, fallthrough);
            target
        }
        _ => {
            let b = match inst.op.format() {
                Format::R3 => b,
                _ => inst.imm as u64,
            };
            let value = eval_op(&inst, a, b, read(inst.rd))
                .map_err(|IntFault::DivideByZero| ExecError::DivideByZero { pc })?;
            write(regs, obs, inst.rd, value);
            fallthrough
        }
    })
}

/// Write `value` to `rd` and report it, unless `rd` is `x0`.
#[inline]
fn write<O: Observer>(regs: &mut [u64; NUM_ARCH_REGS], obs: &mut O, rd: Reg, value: u64) {
    if !rd.is_zero() {
        regs[rd.index()] = value;
        obs.on_write(rd);
    }
}

/// Read `width` bytes (1, 4 or 8, as [`access_width`] gives) at `addr`,
/// zero-extended. Like every [`Memory`] access, the range wraps at the
/// top of the address space.
#[inline]
#[must_use]
pub fn load(mem: &Memory, width: u8, addr: Addr) -> u64 {
    match width {
        1 => u64::from(mem.read_u8(addr)),
        4 => u64::from(mem.read_u32(addr)),
        _ => mem.read_u64(addr),
    }
}

/// Write the low `width` bytes (1, 4 or 8) of `value` at `addr`,
/// wrapping at the top of the address space like [`load`].
#[inline]
pub fn store(mem: &mut Memory, width: u8, addr: Addr, value: u64) {
    match width {
        1 => mem.write_u8(addr, value as u8),
        4 => mem.write_u32(addr, value as u32),
        _ => mem.write_u64(addr, value),
    }
}

/// Fault raised by integer arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntFault {
    /// Division or remainder by zero.
    DivideByZero,
}

/// Evaluate a computational instruction.
///
/// * `a` — value of `rs1`.
/// * `b` — value of `rs2` for register-register forms, or the immediate
///   (sign-extended, reinterpreted as `u64`) for immediate forms.
/// * `old` — previous value of the destination register (consumed by the
///   conditional moves).
///
/// Control flow, loads and stores involve the PC or memory and are
/// handled by [`step`] (and by the pipeline's own execute stage).
///
/// # Errors
///
/// [`IntFault::DivideByZero`] for `DIV`/`REM` with a zero divisor.
pub fn eval_op(inst: &Inst, a: u64, b: u64, old: u64) -> Result<u64, IntFault> {
    let f = |x: u64| f64::from_bits(x);
    Ok(match inst.op {
        Opcode::Add | Opcode::Addi => a.wrapping_add(b),
        Opcode::Sub => a.wrapping_sub(b),
        Opcode::And | Opcode::Andi => a & b,
        Opcode::Or | Opcode::Ori => a | b,
        Opcode::Xor | Opcode::Xori => a ^ b,
        Opcode::Sll | Opcode::Slli => a.wrapping_shl((b & 63) as u32),
        Opcode::Srl | Opcode::Srli => a.wrapping_shr((b & 63) as u32),
        Opcode::Sra | Opcode::Srai => ((a as i64).wrapping_shr((b & 63) as u32)) as u64,
        Opcode::Slt | Opcode::Slti => u64::from((a as i64) < (b as i64)),
        Opcode::Sltu => u64::from(a < b),
        Opcode::Seq => u64::from(a == b),
        Opcode::Mul => a.wrapping_mul(b),
        Opcode::Div => {
            if b == 0 {
                return Err(IntFault::DivideByZero);
            }
            ((a as i64).wrapping_div(b as i64)) as u64
        }
        Opcode::Rem => {
            if b == 0 {
                return Err(IntFault::DivideByZero);
            }
            ((a as i64).wrapping_rem(b as i64)) as u64
        }
        Opcode::Divu => {
            if b == 0 {
                return Err(IntFault::DivideByZero);
            }
            a / b
        }
        Opcode::Remu => {
            if b == 0 {
                return Err(IntFault::DivideByZero);
            }
            a % b
        }
        Opcode::Cmovnz => {
            if b != 0 {
                a
            } else {
                old
            }
        }
        Opcode::Cmovz => {
            if b == 0 {
                a
            } else {
                old
            }
        }
        Opcode::Movi => b,
        Opcode::Fadd => (f(a) + f(b)).to_bits(),
        Opcode::Fsub => (f(a) - f(b)).to_bits(),
        Opcode::Fmul => (f(a) * f(b)).to_bits(),
        Opcode::Fdiv => (f(a) / f(b)).to_bits(),
        Opcode::Fmov => a,
        Opcode::Fcvt => {
            if inst.rd.is_fp() {
                // int -> fp
                (a as i64 as f64).to_bits()
            } else {
                // fp -> int (truncating)
                f(a) as i64 as u64
            }
        }
        other => unreachable!("eval_op called with non-computational opcode {other:?}"),
    })
}

/// Does the conditional branch `op` fire given operand values `a`, `b`?
#[must_use]
pub fn branch_taken(op: Opcode, a: u64, b: u64) -> bool {
    match op {
        Opcode::Beq => a == b,
        Opcode::Bne => a != b,
        Opcode::Blt => (a as i64) < (b as i64),
        Opcode::Bge => (a as i64) >= (b as i64),
        Opcode::Bltu => a < b,
        Opcode::Bgeu => a >= b,
        other => unreachable!("branch_taken called with non-branch opcode {other:?}"),
    }
}

/// Access width in bytes for a load or store opcode.
#[must_use]
pub fn access_width(op: Opcode) -> u8 {
    match op {
        Opcode::Ld | Opcode::St | Opcode::Fld | Opcode::Fst => 8,
        Opcode::Ldw | Opcode::Stw => 4,
        Opcode::Ldb | Opcode::Stb => 1,
        other => unreachable!("access_width called with non-memory opcode {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Reg;

    fn i(op: Opcode) -> Inst {
        Inst::r3(op, Reg::x(1), Reg::x(2), Reg::x(3))
    }

    #[test]
    fn arithmetic_wraps() {
        assert_eq!(eval_op(&i(Opcode::Add), u64::MAX, 1, 0), Ok(0));
        assert_eq!(eval_op(&i(Opcode::Sub), 0, 1, 0), Ok(u64::MAX));
        assert_eq!(eval_op(&i(Opcode::Mul), 1 << 63, 2, 0), Ok(0));
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let minus_one = u64::MAX;
        assert_eq!(eval_op(&i(Opcode::Slt), minus_one, 0, 0), Ok(1));
        assert_eq!(eval_op(&i(Opcode::Sltu), minus_one, 0, 0), Ok(0));
        assert_eq!(eval_op(&i(Opcode::Seq), 5, 5, 0), Ok(1));
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(eval_op(&i(Opcode::Sll), 1, 64, 0), Ok(1));
        assert_eq!(eval_op(&i(Opcode::Sll), 1, 65, 0), Ok(2));
        assert_eq!(eval_op(&i(Opcode::Sra), (-8i64) as u64, 1, 0), Ok((-4i64) as u64));
        assert_eq!(eval_op(&i(Opcode::Srl), (-8i64) as u64, 1, 0), Ok(((-8i64) as u64) >> 1));
    }

    #[test]
    fn srl_is_logical() {
        assert_eq!(eval_op(&i(Opcode::Srl), 0x8000_0000_0000_0000, 63, 0), Ok(1));
    }

    #[test]
    fn division_faults_on_zero_and_handles_negatives() {
        assert_eq!(eval_op(&i(Opcode::Div), 10, 0, 0), Err(IntFault::DivideByZero));
        assert_eq!(eval_op(&i(Opcode::Rem), 10, 0, 0), Err(IntFault::DivideByZero));
        assert_eq!(eval_op(&i(Opcode::Div), (-7i64) as u64, 2, 0), Ok((-3i64) as u64));
        assert_eq!(eval_op(&i(Opcode::Rem), (-7i64) as u64, 2, 0), Ok((-1i64) as u64));
    }

    #[test]
    fn cmov_selects_between_new_and_old() {
        assert_eq!(eval_op(&i(Opcode::Cmovnz), 111, 1, 222), Ok(111));
        assert_eq!(eval_op(&i(Opcode::Cmovnz), 111, 0, 222), Ok(222));
        assert_eq!(eval_op(&i(Opcode::Cmovz), 111, 0, 222), Ok(111));
        assert_eq!(eval_op(&i(Opcode::Cmovz), 111, 7, 222), Ok(222));
    }

    #[test]
    fn fp_ops_work_on_bit_patterns() {
        let a = 1.5f64.to_bits();
        let b = 2.25f64.to_bits();
        assert_eq!(eval_op(&i(Opcode::Fadd), a, b, 0), Ok(3.75f64.to_bits()));
        assert_eq!(eval_op(&i(Opcode::Fmul), a, b, 0), Ok(3.375f64.to_bits()));
    }

    #[test]
    fn fcvt_direction_depends_on_destination_class() {
        let to_fp = Inst::r3(Opcode::Fcvt, Reg::f(0), Reg::x(1), Reg::X0);
        assert_eq!(eval_op(&to_fp, (-3i64) as u64, 0, 0), Ok((-3.0f64).to_bits()));
        let to_int = Inst::r3(Opcode::Fcvt, Reg::x(1), Reg::f(0), Reg::X0);
        assert_eq!(eval_op(&to_int, 2.9f64.to_bits(), 0, 0), Ok(2));
    }

    #[test]
    fn branch_conditions() {
        assert!(branch_taken(Opcode::Beq, 4, 4));
        assert!(!branch_taken(Opcode::Beq, 4, 5));
        assert!(branch_taken(Opcode::Bne, 4, 5));
        assert!(branch_taken(Opcode::Blt, (-1i64) as u64, 0));
        assert!(!branch_taken(Opcode::Bltu, (-1i64) as u64, 0));
        assert!(branch_taken(Opcode::Bge, 0, (-1i64) as u64));
        assert!(branch_taken(Opcode::Bgeu, (-1i64) as u64, 0));
    }

    #[test]
    fn access_widths() {
        assert_eq!(access_width(Opcode::Ld), 8);
        assert_eq!(access_width(Opcode::Stw), 4);
        assert_eq!(access_width(Opcode::Ldb), 1);
        assert_eq!(access_width(Opcode::Fst), 8);
    }

    /// Every hook the kernel fires, in order.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Event {
        Write(Reg),
        Load(Addr, Addr, u8),
        Store(Addr, Addr, u8),
        Cond(Addr, bool),
        Call(Addr),
        Return(Addr),
        Indirect(Addr, Addr, Addr),
    }

    #[derive(Debug, Default)]
    struct Recorder(Vec<Event>);

    impl Observer for Recorder {
        fn on_write(&mut self, rd: Reg) {
            self.0.push(Event::Write(rd));
        }
        fn on_load(&mut self, pc: Addr, addr: Addr, width: u8) {
            self.0.push(Event::Load(pc, addr, width));
        }
        fn on_store(&mut self, pc: Addr, addr: Addr, width: u8) {
            self.0.push(Event::Store(pc, addr, width));
        }
        fn on_cond_branch(&mut self, pc: Addr, taken: bool) {
            self.0.push(Event::Cond(pc, taken));
        }
        fn on_call(&mut self, return_addr: Addr) {
            self.0.push(Event::Call(return_addr));
        }
        fn on_return(&mut self, target: Addr) {
            self.0.push(Event::Return(target));
        }
        fn on_indirect(&mut self, pc: Addr, fallthrough: Addr, target: Addr) {
            self.0.push(Event::Indirect(pc, fallthrough, target));
        }
    }

    const PC: Addr = 0x1000;
    const LEN: usize = 6;
    const NEXT: Addr = PC + LEN as Addr;

    /// A machine with `x(i)` holding `init[i]`, for running single steps.
    struct Machine {
        regs: [u64; NUM_ARCH_REGS],
        mem: Memory,
        obs: Recorder,
    }

    impl Machine {
        fn new(init: &[(Reg, u64)]) -> Self {
            let mut regs = [0; NUM_ARCH_REGS];
            for &(r, v) in init {
                regs[r.index()] = v;
            }
            Machine { regs, mem: Memory::new(), obs: Recorder::default() }
        }

        fn step(&mut self, inst: Inst) -> Result<Addr, ExecError> {
            step(inst, LEN, PC, &mut self.regs, &mut self.mem, &mut self.obs)
        }

        fn reg(&self, r: Reg) -> u64 {
            self.regs[r.index()]
        }
    }

    fn jal(rd: Reg, off: i64) -> Inst {
        Inst { op: Opcode::Jal, rd, rs1: Reg::X0, rs2: Reg::X0, imm: off, secure: false }
    }

    #[test]
    fn jal_ra_is_a_call_with_its_fallthrough() {
        let mut m = Machine::new(&[]);
        assert_eq!(m.step(jal(Reg::RA, 0x20)), Ok(NEXT + 0x20));
        assert_eq!(m.reg(Reg::RA), NEXT);
        assert_eq!(m.obs.0, [Event::Call(NEXT), Event::Write(Reg::RA)]);
        // A plain jump links nothing and is no call.
        let mut m = Machine::new(&[]);
        assert_eq!(m.step(jal(Reg::X0, -6)), Ok(PC));
        assert_eq!(m.obs.0, []);
    }

    #[test]
    fn jalr_x0_ra_is_a_return() {
        let mut m = Machine::new(&[(Reg::RA, 0x4444)]);
        assert_eq!(m.step(Inst::r2i(Opcode::Jalr, Reg::X0, Reg::RA, 0)), Ok(0x4444));
        assert_eq!(m.obs.0, [Event::Return(0x4444)]);
    }

    #[test]
    fn any_other_jalr_is_indirect_with_its_fallthrough() {
        let t = Reg::x(6);
        for (rd, rs1) in [(Reg::X0, t), (Reg::RA, t), (Reg::RA, Reg::RA), (t, Reg::RA)] {
            let mut m = Machine::new(&[(t, 0x5000), (Reg::RA, 0x5000)]);
            assert_eq!(m.step(Inst::r2i(Opcode::Jalr, rd, rs1, 8)), Ok(0x5008));
            assert_eq!(m.obs.0[0], Event::Indirect(PC, NEXT, 0x5008), "jalr {rd}, {rs1}");
            if !rd.is_zero() {
                assert_eq!(m.reg(rd), NEXT, "jalr {rd}, {rs1} links after reading {rs1}");
                assert_eq!(m.obs.0[1..], [Event::Write(rd)]);
            }
        }
    }

    #[test]
    fn conditional_branches_report_their_outcome() {
        let (a, b) = (Reg::x(5), Reg::x(6));
        let mut m = Machine::new(&[(a, 3), (b, 3)]);
        assert_eq!(m.step(Inst::branch(Opcode::Beq, a, b, 0x10, false)), Ok(NEXT + 0x10));
        assert_eq!(m.step(Inst::branch(Opcode::Bne, a, b, 0x10, true)), Ok(NEXT));
        assert_eq!(m.obs.0, [Event::Cond(PC, true), Event::Cond(PC, false)]);
    }

    #[test]
    fn writes_to_x0_are_discarded_and_unreported() {
        let mut m = Machine::new(&[(Reg::x(5), 7)]);
        m.regs[0] = 0;
        assert_eq!(m.step(Inst::r2i(Opcode::Addi, Reg::X0, Reg::x(5), 1)), Ok(NEXT));
        assert_eq!(m.step(Inst::r2i(Opcode::Ld, Reg::X0, Reg::x(5), 0)), Ok(NEXT));
        assert_eq!(m.regs[0], 0);
        assert_eq!(m.obs.0, [Event::Load(PC, 7, 8)]);
    }

    #[test]
    fn reads_of_x0_are_zero() {
        // Even a register file whose slot 0 holds junk reads x0 as zero.
        let mut m = Machine::new(&[(Reg::X0, 99)]);
        assert_eq!(m.step(Inst::r3(Opcode::Add, Reg::x(5), Reg::X0, Reg::X0)), Ok(NEXT));
        assert_eq!(m.reg(Reg::x(5)), 0);
    }

    #[test]
    fn cmov_reads_the_old_destination() {
        let (rd, rs, rc) = (Reg::x(5), Reg::x(6), Reg::x(7));
        let mut m = Machine::new(&[(rd, 111), (rs, 222), (rc, 0)]);
        m.step(Inst::r3(Opcode::Cmovnz, rd, rs, rc)).unwrap();
        assert_eq!(m.reg(rd), 111, "failed condition keeps the old value");
        m.step(Inst::r3(Opcode::Cmovz, rd, rs, rc)).unwrap();
        assert_eq!(m.reg(rd), 222);
        assert_eq!(m.obs.0, [Event::Write(rd), Event::Write(rd)]);
    }

    #[test]
    fn divide_by_zero_faults_at_the_pc_and_changes_nothing() {
        let (rd, a) = (Reg::x(5), Reg::x(6));
        let mut m = Machine::new(&[(rd, 1), (a, 10)]);
        for op in [Opcode::Div, Opcode::Rem, Opcode::Divu, Opcode::Remu] {
            assert_eq!(
                m.step(Inst::r3(op, rd, a, Reg::X0)),
                Err(ExecError::DivideByZero { pc: PC })
            );
        }
        assert_eq!(m.reg(rd), 1);
        assert_eq!(m.obs.0, []);
    }

    #[test]
    fn nop_only_advances() {
        let mut m = Machine::new(&[]);
        assert_eq!(m.step(Inst::nullary(Opcode::Nop)), Ok(NEXT));
        assert_eq!(m.obs.0, []);
    }

    #[test]
    fn load_and_store_widths() {
        let (base, v, d) = (Reg::x(5), Reg::x(6), Reg::x(7));
        let mut m = Machine::new(&[(base, 0x2000), (v, 0x1122_3344_5566_7788)]);
        for (st, ld, want) in [
            (Opcode::Stb, Opcode::Ldb, 0x88),
            (Opcode::Stw, Opcode::Ldw, 0x5566_7788),
            (Opcode::St, Opcode::Ld, 0x1122_3344_5566_7788),
        ] {
            let w = access_width(st);
            let addr = 0x2000 + 16 * u64::from(w);
            m.mem.write_u64(addr, u64::MAX);
            m.step(Inst::store(st, base, v, 16 * i64::from(w))).unwrap();
            let untouched = u64::MAX.checked_shl(8 * u32::from(w)).unwrap_or(0);
            assert_eq!(m.mem.read_u64(addr), untouched | want, "{st:?} writes only {w} bytes");
            m.step(Inst::r2i(ld, d, base, 16 * i64::from(w))).unwrap();
            assert_eq!(m.reg(d), want, "{ld:?} zero-extends");
        }
    }

    #[test]
    fn accesses_wrap_at_the_top_of_memory() {
        let (base, v, d) = (Reg::x(5), Reg::x(6), Reg::x(7));
        let top = u64::MAX - 3;
        let mut m = Machine::new(&[(base, top), (v, 0x1122_3344_5566_7788)]);
        m.step(Inst::store(Opcode::St, base, v, 0)).unwrap();
        assert_eq!(load(&m.mem, 4, top), 0x5566_7788);
        assert_eq!(load(&m.mem, 4, 0), 0x1122_3344, "the high half wraps onto address 0");
        m.step(Inst::r2i(Opcode::Ld, d, base, 0)).unwrap();
        assert_eq!(m.reg(d), 0x1122_3344_5566_7788);
        // Address arithmetic wraps too: base + imm past the top lands low.
        m.step(Inst::r2i(Opcode::Ldw, d, base, 4)).unwrap();
        assert_eq!(m.reg(d), 0x1122_3344);
        assert_eq!(
            m.obs.0,
            [
                Event::Store(PC, top, 8),
                Event::Load(PC, top, 8),
                Event::Write(d),
                Event::Load(PC, 0, 4),
                Event::Write(d),
            ]
        );
        store(&mut m.mem, 1, u64::MAX, 0xABCD);
        assert_eq!(load(&m.mem, 1, u64::MAX), 0xCD);
    }
}

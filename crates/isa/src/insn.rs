//! The decoded instruction form shared by the assembler, the interpreters
//! and the cycle-level simulator.

use core::fmt;

use crate::opcode::{Format, Opcode};
use crate::reg::Reg;
use crate::Addr;

/// A decoded SIR instruction.
///
/// Fields not used by a given [`Format`] are zero (`Reg::X0` / `0`), which
/// keeps the struct uniform and cheap to copy through pipeline queues.
///
/// For control flow, `imm` holds the displacement **from the address of the
/// next instruction** (like x86 `rel32`). Use [`Inst::branch_target`] to
/// resolve it.
///
/// # Examples
///
/// ```
/// use sempe_isa::insn::Inst;
/// use sempe_isa::opcode::Opcode;
/// use sempe_isa::reg::Reg;
///
/// let i = Inst::r3(Opcode::Add, Reg::x(3), Reg::x(4), Reg::x(5));
/// assert_eq!(i.to_string(), "add x3, x4, x5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Operation.
    pub op: Opcode,
    /// Destination register (or `x0`).
    pub rd: Reg,
    /// First source register (base register for memory ops).
    pub rs1: Reg,
    /// Second source register (store data register).
    pub rs2: Reg,
    /// Immediate / displacement.
    pub imm: i64,
    /// `true` when the instruction carried the Secure Execution Prefix,
    /// i.e. it is an sJMP (for conditional branches). `EosJmp` is always
    /// secure by construction.
    pub secure: bool,
}

impl Inst {
    /// Construct a three-register instruction.
    #[must_use]
    pub const fn r3(op: Opcode, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst { op, rd, rs1, rs2, imm: 0, secure: false }
    }

    /// Construct a register-immediate instruction (also loads and `JALR`).
    #[must_use]
    pub const fn r2i(op: Opcode, rd: Reg, rs1: Reg, imm: i64) -> Inst {
        Inst { op, rd, rs1, rs2: Reg::X0, imm, secure: false }
    }

    /// Construct a `MOVI`.
    #[must_use]
    pub const fn movi(rd: Reg, imm: i64) -> Inst {
        Inst { op: Opcode::Movi, rd, rs1: Reg::X0, rs2: Reg::X0, imm, secure: false }
    }

    /// Construct a store: `[rs1 + imm] <- rs2`.
    #[must_use]
    pub const fn store(op: Opcode, base: Reg, src: Reg, imm: i64) -> Inst {
        Inst { op, rd: Reg::X0, rs1: base, rs2: src, imm, secure: false }
    }

    /// Construct a conditional branch with a raw displacement.
    #[must_use]
    pub const fn branch(op: Opcode, rs1: Reg, rs2: Reg, off_from_next: i64, secure: bool) -> Inst {
        Inst { op, rd: Reg::X0, rs1, rs2, imm: off_from_next, secure }
    }

    /// Construct the end-of-secure-jump marker.
    #[must_use]
    pub const fn eosjmp() -> Inst {
        Inst { op: Opcode::EosJmp, rd: Reg::X0, rs1: Reg::X0, rs2: Reg::X0, imm: 0, secure: true }
    }

    /// Construct a no-operand instruction (`NOP`, `HALT`).
    #[must_use]
    pub const fn nullary(op: Opcode) -> Inst {
        Inst { op, rd: Reg::X0, rs1: Reg::X0, rs2: Reg::X0, imm: 0, secure: false }
    }

    /// Is this an sJMP — a conditional branch carrying the SecPrefix?
    #[must_use]
    pub const fn is_sjmp(self) -> bool {
        self.op.is_cond_branch() && self.secure
    }

    /// Is this the eosJMP marker?
    #[must_use]
    pub const fn is_eosjmp(self) -> bool {
        matches!(self.op, Opcode::EosJmp)
    }

    /// Resolve the branch/jump target given this instruction's address and
    /// encoded length.
    ///
    /// Only meaningful for `Branch` and `Jal` formats; indirect jumps
    /// (`JALR`) compute their target from a register at execute time.
    #[inline]
    #[must_use]
    pub fn branch_target(self, pc: Addr, len: usize) -> Addr {
        (pc as i64 + len as i64 + self.imm) as Addr
    }

    /// Architectural destination register, if the instruction writes one.
    #[inline]
    #[must_use]
    pub fn dest(self) -> Option<Reg> {
        let rd = match self.op.format() {
            Format::R3 | Format::R2I32 | Format::R1I64 | Format::Jal => self.rd,
            Format::Branch | Format::Store | Format::None => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// Source registers actually read by this instruction.
    #[inline]
    #[must_use]
    pub fn sources(self) -> [Option<Reg>; 2] {
        let keep = |r: Reg| if r.is_zero() { None } else { Some(r) };
        match self.op.format() {
            Format::R3 => {
                // CMOV additionally reads its own destination (merge
                // semantics), but that is modeled at rename time by the
                // simulator; architecturally the operands are rs1/rs2.
                [keep(self.rs1), keep(self.rs2)]
            }
            Format::R2I32 => [keep(self.rs1), None],
            Format::R1I64 | Format::Jal | Format::None => [None, None],
            Format::Branch | Format::Store => [keep(self.rs1), keep(self.rs2)],
        }
    }

    /// Does this instruction read its destination register as an input?
    ///
    /// True for the conditional moves: `cmovnz rd, rs, rc` leaves `rd`
    /// unchanged when the condition fails, so the old value is an operand.
    #[must_use]
    pub const fn reads_dest(self) -> bool {
        matches!(self.op, Opcode::Cmovnz | Opcode::Cmovz)
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sec = if self.secure && self.op.is_cond_branch() { "s." } else { "" };
        match self.op.format() {
            Format::None => write!(f, "{}", self.op),
            Format::R3 => write!(f, "{}{} {}, {}, {}", sec, self.op, self.rd, self.rs1, self.rs2),
            Format::R2I32 => {
                if self.op.is_load() {
                    write!(f, "{} {}, [{}{:+}]", self.op, self.rd, self.rs1, self.imm)
                } else {
                    write!(f, "{} {}, {}, {}", self.op, self.rd, self.rs1, self.imm)
                }
            }
            Format::R1I64 => write!(f, "{} {}, {:#x}", self.op, self.rd, self.imm),
            Format::Branch => {
                write!(f, "{}{} {}, {}, {:+}", sec, self.op, self.rs1, self.rs2, self.imm)
            }
            Format::Store => write!(f, "{} [{}{:+}], {}", self.op, self.rs1, self.imm, self.rs2),
            Format::Jal => write!(f, "{} {}, {:+}", self.op, self.rd, self.imm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_of_store_and_branch_is_none() {
        let st = Inst::store(Opcode::St, Reg::x(2), Reg::x(3), 8);
        assert_eq!(st.dest(), None);
        let b = Inst::branch(Opcode::Beq, Reg::x(1), Reg::x(2), 12, false);
        assert_eq!(b.dest(), None);
    }

    #[test]
    fn dest_x0_is_discarded() {
        let i = Inst::r3(Opcode::Add, Reg::X0, Reg::x(1), Reg::x(2));
        assert_eq!(i.dest(), None);
    }

    #[test]
    fn branch_target_resolution() {
        // Branch of encoded length 7 at 0x100 with offset +16 from next.
        let b = Inst::branch(Opcode::Bne, Reg::x(1), Reg::X0, 16, true);
        assert_eq!(b.branch_target(0x100, 7), 0x100 + 7 + 16);
        let back = Inst::branch(Opcode::Bne, Reg::x(1), Reg::X0, -32, false);
        assert_eq!(back.branch_target(0x100, 7), 0x100 + 7 - 32);
    }

    #[test]
    fn sjmp_requires_secure_and_cond_branch() {
        let b = Inst::branch(Opcode::Beq, Reg::x(1), Reg::X0, 4, true);
        assert!(b.is_sjmp());
        let nb = Inst::branch(Opcode::Beq, Reg::x(1), Reg::X0, 4, false);
        assert!(!nb.is_sjmp());
        assert!(Inst::eosjmp().is_eosjmp());
        assert!(!Inst::nullary(Opcode::Nop).is_eosjmp());
    }

    #[test]
    fn cmov_reads_its_destination() {
        let c = Inst::r3(Opcode::Cmovnz, Reg::x(5), Reg::x(6), Reg::x(7));
        assert!(c.reads_dest());
        assert_eq!(c.sources(), [Some(Reg::x(6)), Some(Reg::x(7))]);
        let a = Inst::r3(Opcode::Add, Reg::x(5), Reg::x(6), Reg::x(7));
        assert!(!a.reads_dest());
    }

    #[test]
    fn sources_skip_x0() {
        let i = Inst::r3(Opcode::Add, Reg::x(3), Reg::X0, Reg::x(2));
        assert_eq!(i.sources(), [None, Some(Reg::x(2))]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            Inst::branch(Opcode::Beq, Reg::x(1), Reg::x(2), 8, true).to_string(),
            "s.beq x1, x2, +8"
        );
        assert_eq!(Inst::eosjmp().to_string(), "eosjmp");
        assert_eq!(Inst::movi(Reg::x(4), 255).to_string(), "movi x4, 0xff");
        assert_eq!(
            Inst::store(Opcode::St, Reg::x(2), Reg::x(9), -16).to_string(),
            "st [x2-16], x9"
        );
        assert_eq!(Inst::r2i(Opcode::Ld, Reg::x(9), Reg::x(2), 24).to_string(), "ld x9, [x2+24]");
    }
}

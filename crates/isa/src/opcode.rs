//! SIR opcodes and their byte-level encoding values.
//!
//! The concrete byte values are an homage to x86 where a counterpart exists
//! (`NOP` = `0x90`, `HLT` = `0xF4`, the conditional branches live in the
//! `0x7_` row like `Jcc rel8`). That is not mere whimsy: the SeMPE paper's
//! backward-compatibility argument hinges on prefixing branches with the
//! x86 `CS` segment-override byte `0x2E` (historically the static
//! branch-not-taken hint) and on `0x2E 0x90` decoding as a harmless NOP on
//! legacy parts. SIR reproduces exactly that structure so the claim can be
//! tested at the byte level (see [`crate::decode`]).

use core::fmt;

/// The Secure Execution Prefix byte (§IV-C of the paper).
///
/// Prepended to a conditional branch it turns the branch into an sJMP;
/// prepended to [`Opcode::Nop`] it forms the eosJMP instruction. Legacy
/// decoders skip it as a branch-hint prefix.
pub const SEC_PREFIX: u8 = 0x2E;

/// Operand layout of an instruction, used by the encoder/decoder pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// No operands (`NOP`, `HALT`).
    None,
    /// `rd, rs1, rs2`.
    R3,
    /// `rd, rs1, imm32` (ALU-immediate, loads, `JALR`).
    R2I32,
    /// `rd, imm64` (`MOVI`).
    R1I64,
    /// `rs1, rs2, off32` (conditional branches; offset from next PC).
    Branch,
    /// `rs1(base), rs2(src), imm32` (stores).
    Store,
    /// `rd, off32` (`JAL`; offset from next PC).
    Jal,
}

macro_rules! opcodes {
    ($(($name:ident, $byte:expr, $fmt:ident, $mnem:expr)),+ $(,)?) => {
        /// Operation codes of the SIR ISA.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum Opcode {
            $(
                #[doc = concat!("`", $mnem, "`")]
                $name = $byte,
            )+
        }

        impl Opcode {
            /// All opcodes, in declaration order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$name),+];

            /// The encoding byte for this opcode.
            #[must_use]
            pub const fn byte(self) -> u8 {
                self as u8
            }

            /// Decode an opcode byte.
            #[must_use]
            pub const fn from_byte(b: u8) -> Option<Opcode> {
                match b {
                    $($byte => Some(Opcode::$name),)+
                    _ => None,
                }
            }

            /// Operand layout.
            #[inline]
            #[must_use]
            pub const fn format(self) -> Format {
                match self {
                    $(Opcode::$name => Format::$fmt,)+
                }
            }

            /// Assembly mnemonic.
            #[must_use]
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $(Opcode::$name => $mnem,)+
                }
            }
        }
    };
}

opcodes! {
    // ALU register-register.
    (Add,  0x01, R3, "add"),
    (Sub,  0x02, R3, "sub"),
    (And,  0x03, R3, "and"),
    (Or,   0x04, R3, "or"),
    (Xor,  0x05, R3, "xor"),
    (Sll,  0x06, R3, "sll"),
    (Srl,  0x07, R3, "srl"),
    (Sra,  0x08, R3, "sra"),
    (Slt,  0x09, R3, "slt"),
    (Sltu, 0x0A, R3, "sltu"),
    (Seq,  0x0B, R3, "seq"),
    (Mul,  0x0C, R3, "mul"),
    (Div,  0x0D, R3, "div"),
    (Rem,  0x0E, R3, "rem"),
    (Divu, 0x1A, R3, "divu"),
    (Remu, 0x1B, R3, "remu"),
    (Cmovnz, 0x0F, R3, "cmovnz"),
    (Cmovz,  0x10, R3, "cmovz"),

    // ALU register-immediate.
    (Addi, 0x11, R2I32, "addi"),
    (Andi, 0x13, R2I32, "andi"),
    (Ori,  0x14, R2I32, "ori"),
    (Xori, 0x15, R2I32, "xori"),
    (Slli, 0x16, R2I32, "slli"),
    (Srli, 0x17, R2I32, "srli"),
    (Srai, 0x18, R2I32, "srai"),
    (Slti, 0x19, R2I32, "slti"),

    // Constants.
    (Movi, 0xB8, R1I64, "movi"),

    // Memory. Loads are `rd, rs1(base), imm32`; stores `rs1(base), rs2(src), imm32`.
    (Ld,   0x8B, R2I32, "ld"),
    (Ldw,  0x8C, R2I32, "ldw"),
    (Ldb,  0x8D, R2I32, "ldb"),
    (St,   0x89, Store, "st"),
    (Stw,  0x8A, Store, "stw"),
    (Stb,  0x88, Store, "stb"),

    // Floating point (operates on f-registers through the same Reg space).
    (Fadd, 0x20, R3, "fadd"),
    (Fsub, 0x21, R3, "fsub"),
    (Fmul, 0x22, R3, "fmul"),
    (Fdiv, 0x23, R3, "fdiv"),
    (Fld,  0x24, R2I32, "fld"),
    (Fst,  0x25, Store, "fst"),
    (Fcvt, 0x26, R3, "fcvt"),   // rd(f) <- int rs1 converted; or rd(x) <- f rs1 truncated
    (Fmov, 0x27, R3, "fmov"),

    // Control flow. Branch bytes mirror x86 Jcc row.
    (Beq,  0x74, Branch, "beq"),
    (Bne,  0x75, Branch, "bne"),
    (Blt,  0x7C, Branch, "blt"),
    (Bge,  0x7D, Branch, "bge"),
    (Bltu, 0x72, Branch, "bltu"),
    (Bgeu, 0x73, Branch, "bgeu"),
    (Jal,  0xE8, Jal,   "jal"),
    (Jalr, 0xFF, R2I32, "jalr"),

    // System.
    (Nop,  0x90, None, "nop"),
    (Halt, 0xF4, None, "halt"),
    // eosJMP has no opcode byte of its own: it is the two-byte sequence
    // `SEC_PREFIX, Nop`. `EosJmp` exists as a *decoded* operation only; its
    // discriminant (0xEE) is never emitted as a bare opcode byte by the
    // encoder and never recognized by the decoder.
    (EosJmp, 0xEE, None, "eosjmp"),
}

impl Opcode {
    /// Is this a conditional branch (eligible for the SecPrefix → sJMP)?
    #[must_use]
    pub const fn is_cond_branch(self) -> bool {
        matches!(
            self,
            Opcode::Beq | Opcode::Bne | Opcode::Blt | Opcode::Bge | Opcode::Bltu | Opcode::Bgeu
        )
    }

    /// Is this any control-flow instruction?
    #[must_use]
    pub const fn is_control(self) -> bool {
        self.is_cond_branch()
            || matches!(self, Opcode::Jal | Opcode::Jalr | Opcode::EosJmp | Opcode::Halt)
    }

    /// Is this a memory load?
    #[must_use]
    pub const fn is_load(self) -> bool {
        matches!(self, Opcode::Ld | Opcode::Ldw | Opcode::Ldb | Opcode::Fld)
    }

    /// Is this a memory store?
    #[must_use]
    pub const fn is_store(self) -> bool {
        matches!(self, Opcode::St | Opcode::Stw | Opcode::Stb | Opcode::Fst)
    }

    /// Does this opcode execute on the floating-point side of the machine?
    #[must_use]
    pub const fn is_fp(self) -> bool {
        matches!(
            self,
            Opcode::Fadd
                | Opcode::Fsub
                | Opcode::Fmul
                | Opcode::Fdiv
                | Opcode::Fld
                | Opcode::Fst
                | Opcode::Fcvt
                | Opcode::Fmov
        )
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn opcode_bytes_are_unique() {
        let mut seen = BTreeSet::new();
        for op in Opcode::ALL {
            assert!(seen.insert(op.byte()), "duplicate byte for {op:?}");
        }
    }

    #[test]
    fn byte_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op.byte()), Some(*op));
        }
        assert_eq!(Opcode::from_byte(0x00), None);
    }

    #[test]
    fn sec_prefix_is_not_an_opcode() {
        assert_eq!(Opcode::from_byte(SEC_PREFIX), None);
    }

    #[test]
    fn branch_classification() {
        for op in [Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge, Opcode::Bltu, Opcode::Bgeu] {
            assert!(op.is_cond_branch());
            assert!(op.is_control());
            assert_eq!(op.format(), Format::Branch);
        }
        assert!(!Opcode::Jal.is_cond_branch());
        assert!(Opcode::Jal.is_control());
        assert!(Opcode::Halt.is_control());
        assert!(!Opcode::Add.is_control());
    }

    #[test]
    fn memory_classification() {
        assert!(Opcode::Ld.is_load() && !Opcode::Ld.is_store());
        assert!(Opcode::St.is_store() && !Opcode::St.is_load());
        assert!(Opcode::Fld.is_load() && Opcode::Fld.is_fp());
        assert!(Opcode::Fst.is_store() && Opcode::Fst.is_fp());
    }

    #[test]
    fn nop_matches_x86_and_eosjmp_builds_on_it() {
        assert_eq!(Opcode::Nop.byte(), 0x90);
        assert_eq!(SEC_PREFIX, 0x2E);
    }
}

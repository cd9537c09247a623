//! A small programmatic assembler for SIR.
//!
//! [`Asm`] is a builder: emit instructions through the mnemonic methods,
//! create and bind [`Label`]s for control flow, allocate static data, then
//! [`Asm::assemble`] into a [`Program`]. Branch displacement patching and
//! range checking happen at assembly time.
//!
//! # Examples
//!
//! A loop that sums 1..=5, with the result in `a0`:
//!
//! ```
//! use sempe_isa::asm::Asm;
//! use sempe_isa::reg::abi;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! let done = a.label("done");
//! let top = a.label("top");
//! a.movi(abi::T[0], 5);
//! a.movi(abi::A[0], 0);
//! a.bind(top)?;
//! a.beq(abi::T[0], abi::ZERO, done);
//! a.add(abi::A[0], abi::A[0], abi::T[0]);
//! a.addi(abi::T[0], abi::T[0], -1);
//! a.jmp(top);
//! a.bind(done)?;
//! a.halt();
//! let prog = a.assemble()?;
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;

use crate::encode::encode_into;
use crate::error::AsmError;
use crate::insn::Inst;
use crate::mem::word_image;
use crate::opcode::Opcode;
use crate::program::{layout, Program};
use crate::reg::Reg;
use crate::Addr;

/// A code label handle; create with [`Asm::label`], place with
/// [`Asm::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

#[derive(Debug, Clone)]
struct Fixup {
    /// Offset of the 4-byte displacement field within the code buffer.
    field_at: usize,
    /// Offset of the first byte after the instruction (displacements are
    /// relative to the next PC).
    next_at: usize,
    label: Label,
}

/// Programmatic assembler and data-segment allocator.
#[derive(Debug, Clone)]
pub struct Asm {
    code_base: Addr,
    code: Vec<u8>,
    labels: Vec<Option<usize>>,
    label_names: Vec<String>,
    fixups: Vec<Fixup>,
    data: Vec<(Addr, Vec<u8>)>,
    data_cursor: Addr,
    symbols: BTreeMap<String, Addr>,
    inst_count: usize,
}

impl Default for Asm {
    fn default() -> Self {
        Self::new()
    }
}

impl Asm {
    /// New assembler at the conventional [`layout`] bases.
    #[must_use]
    pub fn new() -> Self {
        Self::with_bases(layout::CODE_BASE, layout::DATA_BASE)
    }

    /// New assembler with explicit code and data base addresses.
    #[must_use]
    pub fn with_bases(code_base: Addr, data_base: Addr) -> Self {
        Asm {
            code_base,
            code: Vec::new(),
            labels: Vec::new(),
            label_names: Vec::new(),
            fixups: Vec::new(),
            data: Vec::new(),
            data_cursor: data_base,
            symbols: BTreeMap::new(),
            inst_count: 0,
        }
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn inst_count(&self) -> usize {
        self.inst_count
    }

    /// Current code offset in bytes.
    #[must_use]
    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Create a new (unbound) label.
    pub fn label(&mut self, name: impl Into<String>) -> Label {
        self.labels.push(None);
        self.label_names.push(name.into());
        Label(self.labels.len() - 1)
    }

    /// Create a label with an auto-generated unique name.
    pub fn fresh_label(&mut self, prefix: &str) -> Label {
        let name = format!("{prefix}${}", self.labels.len());
        self.label(name)
    }

    /// Bind `label` to the current code position and record it as a symbol.
    ///
    /// # Errors
    ///
    /// [`AsmError::ReboundLabel`] if the label was already bound.
    pub fn bind(&mut self, label: Label) -> Result<(), AsmError> {
        if self.labels[label.0].is_some() {
            return Err(AsmError::ReboundLabel { name: self.label_names[label.0].clone() });
        }
        self.labels[label.0] = Some(self.code.len());
        let addr = self.code_base + self.code.len() as Addr;
        self.symbols.insert(self.label_names[label.0].clone(), addr);
        Ok(())
    }

    /// Emit a raw instruction (no label patching).
    pub fn emit(&mut self, inst: Inst) {
        encode_into(&inst, &mut self.code);
        self.inst_count += 1;
    }

    fn emit_with_label(&mut self, inst: Inst, label: Label) {
        encode_into(&inst, &mut self.code);
        self.inst_count += 1;
        // The displacement is always the trailing 4 bytes of the encoding.
        self.fixups.push(Fixup { field_at: self.code.len() - 4, next_at: self.code.len(), label });
    }

    // ---- data segment ------------------------------------------------

    /// Allocate an already-encoded byte image in the data segment (the
    /// segment keeps the buffer itself); returns its address.
    pub fn data_bytes(&mut self, bytes: Vec<u8>) -> Addr {
        let addr = self.data_cursor;
        self.data_cursor += bytes.len() as Addr;
        self.data.push((addr, bytes));
        self.align_data(8);
        addr
    }

    /// Allocate little-endian `u64` words in the data segment.
    pub fn data_words(&mut self, words: &[u64]) -> Addr {
        self.data_bytes(word_image(words, words.len()))
    }

    /// Reserve `len` zeroed bytes in the data segment; returns the address.
    pub fn zero_data(&mut self, len: usize) -> Addr {
        let addr = self.data_cursor;
        self.data_cursor += len as Addr;
        self.align_data(8);
        addr
    }

    /// Record a named symbol at an arbitrary address.
    pub fn define_symbol(&mut self, name: impl Into<String>, addr: Addr) {
        self.symbols.insert(name.into(), addr);
    }

    fn align_data(&mut self, align: Addr) {
        self.data_cursor = self.data_cursor.div_ceil(align) * align;
    }

    // ---- mnemonics ----------------------------------------------------

    /// `rd <- imm` (64-bit immediate).
    pub fn movi(&mut self, rd: Reg, imm: i64) {
        self.emit(Inst::movi(rd, imm));
    }

    /// Register move (`addi rd, rs, 0`).
    pub fn mov(&mut self, rd: Reg, rs: Reg) {
        self.emit(Inst::r2i(Opcode::Addi, rd, rs, 0));
    }

    /// `nop`.
    pub fn nop(&mut self) {
        self.emit(Inst::nullary(Opcode::Nop));
    }

    /// `halt`.
    pub fn halt(&mut self) {
        self.emit(Inst::nullary(Opcode::Halt));
    }

    /// End-of-SecureJump marker (`0x2E 0x90`).
    pub fn eosjmp(&mut self) {
        self.emit(Inst::eosjmp());
    }

    /// Unconditional jump to a label (`jal x0, label`).
    pub fn jmp(&mut self, target: Label) {
        self.emit_with_label(
            Inst {
                op: Opcode::Jal,
                rd: Reg::X0,
                rs1: Reg::X0,
                rs2: Reg::X0,
                imm: 0,
                secure: false,
            },
            target,
        );
    }

    /// Call a label (`jal ra, label`).
    pub fn call(&mut self, target: Label) {
        self.emit_with_label(
            Inst {
                op: Opcode::Jal,
                rd: Reg::RA,
                rs1: Reg::X0,
                rs2: Reg::X0,
                imm: 0,
                secure: false,
            },
            target,
        );
    }

    /// Return (`jalr x0, ra, 0`).
    pub fn ret(&mut self) {
        self.emit(Inst::r2i(Opcode::Jalr, Reg::X0, Reg::RA, 0));
    }

    /// Indirect jump through a register (`jalr x0, rs, imm`).
    pub fn jr(&mut self, rs: Reg, imm: i64) {
        self.emit(Inst::r2i(Opcode::Jalr, Reg::X0, rs, imm));
    }

    fn branch(&mut self, op: Opcode, rs1: Reg, rs2: Reg, target: Label, secure: bool) {
        self.emit_with_label(Inst::branch(op, rs1, rs2, 0, secure), target);
    }

    /// Load a 64-bit word: `rd <- [base + off]`.
    pub fn ld(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Inst::r2i(Opcode::Ld, rd, base, off));
    }

    /// Store a 64-bit word: `[base + off] <- src`.
    pub fn st(&mut self, base: Reg, src: Reg, off: i64) {
        self.emit(Inst::store(Opcode::St, base, src, off));
    }

    /// Load a 32-bit word, zero-extended.
    pub fn ldw(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Inst::r2i(Opcode::Ldw, rd, base, off));
    }

    /// Store the low 32 bits of `src`.
    pub fn stw(&mut self, base: Reg, src: Reg, off: i64) {
        self.emit(Inst::store(Opcode::Stw, base, src, off));
    }

    /// Load one byte, zero-extended.
    pub fn ldb(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Inst::r2i(Opcode::Ldb, rd, base, off));
    }

    /// Store the low byte of `src`.
    pub fn stb(&mut self, base: Reg, src: Reg, off: i64) {
        self.emit(Inst::store(Opcode::Stb, base, src, off));
    }

    /// Floating-point load.
    pub fn fld(&mut self, rd: Reg, base: Reg, off: i64) {
        self.emit(Inst::r2i(Opcode::Fld, rd, base, off));
    }

    /// Floating-point store.
    pub fn fst(&mut self, base: Reg, src: Reg, off: i64) {
        self.emit(Inst::store(Opcode::Fst, base, src, off));
    }

    /// Assemble into a [`Program`] with entry at the code base.
    ///
    /// # Errors
    ///
    /// [`AsmError::UnboundLabel`] if any referenced label was never bound;
    /// [`AsmError::OffsetOverflow`] if a displacement exceeds 32 bits.
    pub fn assemble(self) -> Result<Program, AsmError> {
        let entry = self.code_base;
        self.assemble_with_entry(entry)
    }

    /// Assemble with an explicit entry address.
    ///
    /// # Errors
    ///
    /// See [`Asm::assemble`].
    pub fn assemble_with_entry(mut self, entry: Addr) -> Result<Program, AsmError> {
        for fixup in &self.fixups {
            let off = self.labels[fixup.label.0].ok_or_else(|| AsmError::UnboundLabel {
                name: self.label_names[fixup.label.0].clone(),
            })?;
            let disp = off as i64 - fixup.next_at as i64;
            let disp32 = i32::try_from(disp).map_err(|_| AsmError::OffsetOverflow {
                name: self.label_names[fixup.label.0].clone(),
            })?;
            self.code[fixup.field_at..fixup.field_at + 4].copy_from_slice(&disp32.to_le_bytes());
        }
        Ok(Program::from_parts(self.code_base, self.code, entry, self.data, self.symbols))
    }
}

macro_rules! r3_mnemonics {
    ($(($method:ident, $op:ident, $doc:expr)),+ $(,)?) => {
        impl Asm {
            $(
                #[doc = $doc]
                pub fn $method(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
                    self.emit(Inst::r3(Opcode::$op, rd, rs1, rs2));
                }
            )+
        }
    };
}

r3_mnemonics! {
    (add, Add, "`rd <- rs1 + rs2` (wrapping)."),
    (sub, Sub, "`rd <- rs1 - rs2` (wrapping)."),
    (and, And, "`rd <- rs1 & rs2`."),
    (or, Or, "`rd <- rs1 | rs2`."),
    (xor, Xor, "`rd <- rs1 ^ rs2`."),
    (sll, Sll, "`rd <- rs1 << (rs2 & 63)`."),
    (srl, Srl, "`rd <- rs1 >> (rs2 & 63)` (logical)."),
    (sra, Sra, "`rd <- rs1 >> (rs2 & 63)` (arithmetic)."),
    (slt, Slt, "`rd <- (rs1 <s rs2) ? 1 : 0`."),
    (sltu, Sltu, "`rd <- (rs1 <u rs2) ? 1 : 0`."),
    (seq, Seq, "`rd <- (rs1 == rs2) ? 1 : 0`."),
    (mul, Mul, "`rd <- rs1 * rs2` (wrapping, low 64 bits)."),
    (div, Div, "`rd <- rs1 /s rs2`; divide-by-zero faults."),
    (rem, Rem, "`rd <- rs1 %s rs2`; divide-by-zero faults."),
    (divu, Divu, "`rd <- rs1 /u rs2`; divide-by-zero faults."),
    (remu, Remu, "`rd <- rs1 %u rs2`; divide-by-zero faults."),
    (cmovnz, Cmovnz, "`rd <- (rs2 != 0) ? rs1 : rd` — the conditional move SeMPE leans on."),
    (cmovz, Cmovz, "`rd <- (rs2 == 0) ? rs1 : rd`."),
    (fadd, Fadd, "`fd <- fs1 + fs2`."),
    (fsub, Fsub, "`fd <- fs1 - fs2`."),
    (fmul, Fmul, "`fd <- fs1 * fs2`."),
    (fdiv, Fdiv, "`fd <- fs1 / fs2`."),
    (fcvt, Fcvt, "Convert between integer and FP register files."),
    (fmov, Fmov, "FP register move."),
}

macro_rules! imm_mnemonics {
    ($(($method:ident, $op:ident, $doc:expr)),+ $(,)?) => {
        impl Asm {
            $(
                #[doc = $doc]
                pub fn $method(&mut self, rd: Reg, rs1: Reg, imm: i64) {
                    self.emit(Inst::r2i(Opcode::$op, rd, rs1, imm));
                }
            )+
        }
    };
}

imm_mnemonics! {
    (addi, Addi, "`rd <- rs1 + imm`."),
    (andi, Andi, "`rd <- rs1 & imm`."),
    (ori, Ori, "`rd <- rs1 | imm`."),
    (xori, Xori, "`rd <- rs1 ^ imm`."),
    (slli, Slli, "`rd <- rs1 << (imm & 63)`."),
    (srli, Srli, "`rd <- rs1 >> (imm & 63)` (logical)."),
    (srai, Srai, "`rd <- rs1 >> (imm & 63)` (arithmetic)."),
    (slti, Slti, "`rd <- (rs1 <s imm) ? 1 : 0`."),
}

macro_rules! branch_mnemonics {
    ($(($plain:ident, $secure:ident, $op:ident, $cond:expr)),+ $(,)?) => {
        impl Asm {
            $(
                #[doc = concat!("Branch to `target` when ", $cond, ".")]
                pub fn $plain(&mut self, rs1: Reg, rs2: Reg, target: Label) {
                    self.branch(Opcode::$op, rs1, rs2, target, false);
                }

                #[doc = concat!("Secure branch (sJMP) on ", $cond,
                    ": both paths will execute on SeMPE hardware.")]
                pub fn $secure(&mut self, rs1: Reg, rs2: Reg, target: Label) {
                    self.branch(Opcode::$op, rs1, rs2, target, true);
                }
            )+
        }
    };
}

branch_mnemonics! {
    (beq, sbeq, Beq, "`rs1 == rs2`"),
    (bne, sbne, Bne, "`rs1 != rs2`"),
    (blt, sblt, Blt, "`rs1 <s rs2`"),
    (bge, sbge, Bge, "`rs1 >=s rs2`"),
    (bltu, sbltu, Bltu, "`rs1 <u rs2`"),
    (bgeu, sbgeu, Bgeu, "`rs1 >=u rs2`"),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::DecodeMode;
    use crate::reg::abi;

    #[test]
    fn forward_and_backward_branches_patch_correctly() {
        let mut a = Asm::new();
        let fwd = a.label("fwd");
        let back = a.label("back");
        a.bind(back).unwrap();
        a.beq(abi::ZERO, abi::ZERO, fwd); // forward
        a.bne(abi::ZERO, abi::ZERO, back); // backward
        a.bind(fwd).unwrap();
        a.halt();
        let prog = a.assemble().unwrap();
        let d = prog.decoded(DecodeMode::Sempe).unwrap();
        let insts: Vec<_> = d.iter().collect();
        // beq at insts[0], length 7, target = address of halt.
        let (beq_addr, beq) = insts[0];
        assert_eq!(beq.branch_target(beq_addr, 7), insts[2].0);
        let (bne_addr, bne) = insts[1];
        assert_eq!(bne.branch_target(bne_addr, 7), insts[0].0);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut a = Asm::new();
        let l = a.label("nowhere");
        a.jmp(l);
        let err = a.assemble().unwrap_err();
        assert_eq!(err, AsmError::UnboundLabel { name: "nowhere".into() });
    }

    #[test]
    fn rebinding_is_an_error() {
        let mut a = Asm::new();
        let l = a.label("twice");
        a.bind(l).unwrap();
        assert_eq!(a.bind(l), Err(AsmError::ReboundLabel { name: "twice".into() }));
    }

    #[test]
    fn data_allocation_is_aligned_and_disjoint() {
        let mut a = Asm::new();
        let d1 = a.data_bytes(vec![1, 2, 3]);
        let d2 = a.data_words(&[42]);
        let d3 = a.zero_data(5);
        let d4 = a.zero_data(8);
        assert!(d2 >= d1 + 3);
        assert_eq!(d2 % 8, 0);
        assert_eq!(d3 % 8, 0);
        assert_eq!(d4 % 8, 0);
        assert!(d4 >= d3 + 5);
    }

    #[test]
    fn labels_become_symbols() {
        let mut a = Asm::new();
        let l = a.label("func");
        a.nop();
        a.bind(l).unwrap();
        a.halt();
        let prog = a.assemble().unwrap();
        assert_eq!(prog.symbol("func"), Some(layout::CODE_BASE + 1));
    }

    #[test]
    fn secure_branch_mnemonics_mark_sjmp() {
        let mut a = Asm::new();
        let l = a.label("t");
        a.sbne(abi::A[0], abi::ZERO, l);
        a.bind(l).unwrap();
        a.eosjmp();
        a.halt();
        let prog = a.assemble().unwrap();
        let d = prog.decoded(DecodeMode::Sempe).unwrap();
        let insts: Vec<_> = d.iter().map(|(_, i)| i).collect();
        assert!(insts[0].is_sjmp());
        assert!(insts[1].is_eosjmp());
    }

    #[test]
    fn inst_count_tracks_emissions() {
        let mut a = Asm::new();
        a.nop();
        a.movi(abi::T[0], 1);
        a.halt();
        assert_eq!(a.inst_count(), 3);
    }
}

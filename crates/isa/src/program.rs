//! Linked program images: code bytes, initial data, symbols — plus the
//! decoded view used for execution.

use std::collections::BTreeMap;

use crate::decode::{decode_region, DecodeMode};
use crate::error::{DecodeError, ExecError};
use crate::insn::Inst;
use crate::mem::Memory;
use crate::opcode::{Format, Opcode};
use crate::reg::Reg;
use crate::semantics::access_width;
use crate::Addr;

/// Conventional memory layout used by the assembler and code generators.
pub mod layout {
    use crate::Addr;

    /// Base address where program code is linked.
    pub const CODE_BASE: Addr = 0x0001_0000;
    /// Base address of the static data segment.
    pub const DATA_BASE: Addr = 0x0010_0000;
    /// Base address of the shadow-memory region used for SecBlock
    /// privatization by the SeMPE code generator.
    pub const SHADOW_BASE: Addr = 0x0400_0000;
    /// Initial stack pointer (stacks grow down).
    pub const STACK_TOP: Addr = 0x7FFF_F000;
}

/// A fully linked SIR program.
///
/// # Examples
///
/// ```
/// use sempe_isa::asm::Asm;
/// use sempe_isa::reg::Reg;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.movi(Reg::x(16), 41);
/// a.addi(Reg::x(16), Reg::x(16), 1);
/// a.halt();
/// let prog = a.assemble()?;
/// assert!(prog.code_len() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Program {
    code_base: Addr,
    code: Vec<u8>,
    entry: Addr,
    data: Vec<(Addr, Vec<u8>)>,
    symbols: BTreeMap<String, Addr>,
}

impl Program {
    /// Assemble a raw image from parts. Most users go through
    /// [`crate::asm::Asm`] instead.
    #[must_use]
    pub fn from_parts(
        code_base: Addr,
        code: Vec<u8>,
        entry: Addr,
        data: Vec<(Addr, Vec<u8>)>,
        symbols: BTreeMap<String, Addr>,
    ) -> Self {
        Program { code_base, code, entry, data, symbols }
    }

    /// Address the code is linked at.
    #[must_use]
    pub fn code_base(&self) -> Addr {
        self.code_base
    }

    /// Raw code bytes.
    #[must_use]
    pub fn code(&self) -> &[u8] {
        &self.code
    }

    /// Code size in bytes.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Program entry point.
    #[must_use]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Initial data images `(address, bytes)`.
    #[must_use]
    pub fn data(&self) -> &[(Addr, Vec<u8>)] {
        &self.data
    }

    /// Symbol table (label name → address).
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, Addr> {
        &self.symbols
    }

    /// Look up a symbol's address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<Addr> {
        self.symbols.get(name).copied()
    }

    /// A content digest of the loadable image (FNV-1a over code base,
    /// entry, code bytes, and every data segment). Two programs with the
    /// same digest load identically, which makes the digest usable as a
    /// content-addressed cache key for compiled binaries.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        h.write_u64(self.code_base);
        h.write_u64(self.entry);
        h.write_u64(self.code.len() as u64);
        h.write(&self.code);
        for (addr, image) in &self.data {
            h.write_u64(*addr);
            h.write_u64(image.len() as u64);
            h.write(image);
        }
        h.finish()
    }

    /// A content key of the loadable image for in-process caches: equal
    /// for images that load identically, like [`Program::digest`], but
    /// hashed a word at a time, so keying a large data image costs a
    /// fraction of the byte-wise digest. Not stable across releases and
    /// never sent anywhere; the digest is the wire identity.
    #[must_use]
    pub fn content_key(&self) -> u64 {
        let mut h = crate::hash::WordHash::new();
        h.write_u64(self.code_base);
        h.write_u64(self.entry);
        h.write(&self.code);
        for (addr, image) in &self.data {
            h.write_u64(*addr);
            h.write(image);
        }
        h.finish()
    }

    /// Load code and initial data into a memory image.
    pub fn load_into(&self, mem: &mut Memory) {
        mem.load_image(self.code_base, &self.code);
        for (addr, image) in &self.data {
            mem.load_image(*addr, image);
        }
    }

    /// Decode the whole code region with the given front end into one
    /// [`Uop`] record per instruction.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] in the image.
    pub fn decoded(&self, mode: DecodeMode) -> Result<DecodedProgram, DecodeError> {
        let decoded = decode_region(&self.code, self.code_base, mode)?;
        let mut starts = vec![NO_INST; self.code.len()];
        for (index, &(addr, _, _)) in decoded.iter().enumerate() {
            starts[(addr - self.code_base) as usize] = index as u32;
        }
        let index_of = |pc: Addr| {
            starts.get(pc.wrapping_sub(self.code_base) as usize).copied().unwrap_or(NO_INST)
        };
        let uops =
            decoded.iter().map(|&(addr, inst, len)| Uop::new(inst, addr, len, &index_of)).collect();
        Ok(DecodedProgram {
            entry: self.entry,
            code_base: self.code_base,
            code_end: self.code_base + self.code.len() as Addr,
            mode,
            code: self.code.clone(),
            uops,
            starts,
        })
    }
}

/// Sentinel µop index: "no instruction starts here" — a PC off the
/// decoded region or inside an instruction.
pub const NO_INST: u32 = u32::MAX;

/// Which execution latency a µop is charged. The simulator maps a class
/// to cycles through a small table built from its latency configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum LatClass {
    /// Everything not listed below (ALU ops, moves, memory address
    /// generation, `NOP`).
    Alu,
    /// `MUL`.
    Mul,
    /// The integer divider: `DIV`, `REM`, `DIVU`, `REMU`.
    Div,
    /// `FADD`, `FSUB`.
    FpAdd,
    /// `FMUL`.
    FpMul,
    /// The FP divider: `FDIV`.
    FpDiv,
    /// Conditional branches, `JAL`, `JALR`.
    Branch,
}

impl LatClass {
    /// Number of classes (the size of a latency table).
    pub const COUNT: usize = 7;

    /// The class of `op`.
    #[must_use]
    pub const fn of(op: Opcode) -> LatClass {
        match op {
            Opcode::Mul => LatClass::Mul,
            Opcode::Div | Opcode::Rem | Opcode::Divu | Opcode::Remu => LatClass::Div,
            Opcode::Fadd | Opcode::Fsub => LatClass::FpAdd,
            Opcode::Fmul => LatClass::FpMul,
            Opcode::Fdiv => LatClass::FpDiv,
            Opcode::Jal | Opcode::Jalr => LatClass::Branch,
            op if op.is_cond_branch() => LatClass::Branch,
            _ => LatClass::Alu,
        }
    }
}

/// One decoded instruction as the simulator's stages read it: every fact
/// that is fixed per instruction, derived once at decode instead of per
/// fetch, rename, issue and commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uop {
    /// The instruction itself (operation, registers, immediate).
    pub inst: Inst,
    /// Direct-branch target (conditional branches and `JAL`), else 0.
    pub target: Addr,
    /// Index of the instruction at `target`, or [`NO_INST`].
    pub target_index: u32,
    /// Index of the fall-through instruction, or [`NO_INST`] at the end
    /// of the code.
    pub next_index: u32,
    /// Class bits: [`Uop::LOAD`], [`Uop::STORE`] and the rest.
    pub flags: u16,
    /// Architectural destination register, as [`Inst::dest`].
    pub dest: Option<Reg>,
    /// Source registers, as [`Inst::sources`].
    pub srcs: [Option<Reg>; 2],
    /// Access width in bytes of a load or store, else 0.
    pub width: u8,
    /// Execution latency class.
    pub lat: LatClass,
    /// Encoded length in bytes.
    pub len: u8,
}

impl Uop {
    /// A memory load.
    pub const LOAD: u16 = 1 << 0;
    /// A memory store.
    pub const STORE: u16 = 1 << 1;
    /// A conditional branch (secure or not).
    pub const COND_BRANCH: u16 = 1 << 2;
    /// A conditional branch carrying the SecPrefix under this decode.
    pub const SJMP: u16 = 1 << 3;
    /// `JAL`.
    pub const JAL: u16 = 1 << 4;
    /// `JALR`.
    pub const JALR: u16 = 1 << 5;
    /// The eosJMP marker.
    pub const EOS: u16 = 1 << 6;
    /// `HALT`.
    pub const HALT: u16 = 1 << 7;
    /// Executes on the floating-point side ([`Opcode::is_fp`]).
    pub const FP: u16 = 1 << 8;
    /// Waits in an issue queue (everything but `NOP`, `HALT`, eosJMP).
    pub const NEEDS_IQ: u16 = 1 << 9;
    /// Reads its destination register as an input ([`Inst::reads_dest`]).
    pub const READS_DEST: u16 = 1 << 10;
    /// The second operand is `rs2`, not the immediate (register-register
    /// format).
    pub const SRC2_REG: u16 = 1 << 11;

    /// The record of `inst`, encoded in `len` bytes at `pc`;
    /// `index_of` resolves an address to its instruction index.
    fn new(inst: Inst, pc: Addr, len: usize, index_of: &impl Fn(Addr) -> u32) -> Uop {
        let op = inst.op;
        let bits = [
            (op.is_load(), Uop::LOAD),
            (op.is_store(), Uop::STORE),
            (op.is_cond_branch(), Uop::COND_BRANCH),
            (inst.is_sjmp(), Uop::SJMP),
            (op == Opcode::Jal, Uop::JAL),
            (op == Opcode::Jalr, Uop::JALR),
            (op == Opcode::EosJmp, Uop::EOS),
            (op == Opcode::Halt, Uop::HALT),
            (op.is_fp(), Uop::FP),
            (!matches!(op, Opcode::Nop | Opcode::Halt | Opcode::EosJmp), Uop::NEEDS_IQ),
            (inst.reads_dest(), Uop::READS_DEST),
            (op.format() == Format::R3, Uop::SRC2_REG),
        ];
        let flags = bits.iter().filter(|(on, _)| *on).fold(0, |f, (_, bit)| f | bit);
        let direct = op.is_cond_branch() || op == Opcode::Jal;
        let target = if direct { inst.branch_target(pc, len) } else { 0 };
        Uop {
            inst,
            target,
            target_index: if direct { index_of(target) } else { NO_INST },
            next_index: index_of(pc + len as Addr),
            flags,
            dest: inst.dest(),
            srcs: inst.sources(),
            width: if op.is_load() || op.is_store() { access_width(op) } else { 0 },
            lat: LatClass::of(op),
            len: len as u8,
        }
    }

    /// Does this µop carry every bit of `flags`?
    #[inline]
    #[must_use]
    pub const fn has(&self, flags: u16) -> bool {
        self.flags & flags == flags
    }
}

/// A program decoded for execution: one [`Uop`] record per instruction,
/// in address order, and lookup by address.
///
/// The cycle-level simulator still charges instruction-cache timing for the
/// *bytes*; this structure only provides the semantic view, the way a
/// decoded-µop cache would.
///
/// Execution steps by instruction index: each record names the index of
/// its fall-through and of its direct-branch target, so straight-line
/// fetch and taken direct branches never consult the address map. The
/// map — `starts[pc - code_base]`, the index of the instruction starting
/// at that byte or [`NO_INST`] mid-instruction — only turns a computed
/// PC (a return, an indirect jump, a squash or eosJMP redirect) into an
/// index.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    entry: Addr,
    code_base: Addr,
    code_end: Addr,
    mode: DecodeMode,
    /// The decoded bytes, so a rebuild can tell whether a program's code
    /// is this decode's (see [`DecodedProgram::is_decode_of`]).
    code: Vec<u8>,
    /// One record per instruction, in address order.
    uops: Vec<Uop>,
    /// Per code byte: index into `uops` when an instruction starts at
    /// that offset, [`NO_INST`] otherwise.
    starts: Vec<u32>,
}

impl DecodedProgram {
    /// Program entry point.
    #[must_use]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// First address of the code region.
    #[must_use]
    pub fn code_base(&self) -> Addr {
        self.code_base
    }

    /// One past the last address of the code region.
    #[must_use]
    pub fn code_end(&self) -> Addr {
        self.code_end
    }

    /// Number of decoded instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Is the program empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// Is this the decode of `prog`'s code under `mode`? True when the
    /// code bytes, code base, entry and decode mode all match; data
    /// images do not enter the decode.
    #[must_use]
    pub fn is_decode_of(&self, prog: &Program, mode: DecodeMode) -> bool {
        self.mode == mode
            && self.code_base == prog.code_base
            && self.entry == prog.entry
            && self.code == prog.code
    }

    /// Index of the instruction starting at `pc`, or [`NO_INST`] when
    /// `pc` is outside the code region or inside an instruction.
    #[must_use]
    #[inline]
    pub fn index_of(&self, pc: Addr) -> u32 {
        self.starts.get(pc.wrapping_sub(self.code_base) as usize).copied().unwrap_or(NO_INST)
    }

    /// The record at instruction index `index`.
    ///
    /// # Panics
    ///
    /// When `index` is not below [`DecodedProgram::len`].
    #[must_use]
    #[inline]
    pub fn uop(&self, index: u32) -> &Uop {
        &self.uops[index as usize]
    }

    /// Fetch the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// [`ExecError::FetchFault`] when `pc` is outside the code region or
    /// points into the middle of an instruction.
    pub fn fetch(&self, pc: Addr) -> Result<(Inst, usize), ExecError> {
        self.try_fetch(pc).ok_or(ExecError::FetchFault { pc })
    }

    /// Fetch without failing: `None` for a bad `pc`.
    #[must_use]
    #[inline]
    pub fn try_fetch(&self, pc: Addr) -> Option<(Inst, usize)> {
        let u = self.uops.get(self.index_of(pc) as usize)?;
        Some((u.inst, u.len as usize))
    }

    /// Iterate over `(addr, inst)` pairs in address order. Walks the
    /// dense record array directly; no per-call collection or sort.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Inst)> + '_ {
        let base = self.code_base;
        let mut offset: Addr = 0;
        self.uops.iter().map(move |u| {
            let addr = base + offset;
            offset += Addr::from(u.len);
            (addr, u.inst)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_all;
    use crate::opcode::Opcode;
    use crate::reg::Reg;

    fn tiny_program() -> Program {
        let insts = [
            Inst::movi(Reg::x(5), 3),
            Inst::branch(Opcode::Bne, Reg::x(5), Reg::X0, 1, true),
            Inst::nullary(Opcode::Nop),
            Inst::eosjmp(),
            Inst::nullary(Opcode::Halt),
        ];
        let code = encode_all(&insts);
        Program::from_parts(
            layout::CODE_BASE,
            code,
            layout::CODE_BASE,
            vec![(layout::DATA_BASE, vec![9, 9, 9])],
            BTreeMap::from([("start".to_string(), layout::CODE_BASE)]),
        )
    }

    #[test]
    fn load_into_places_code_and_data() {
        let p = tiny_program();
        let mut mem = Memory::new();
        p.load_into(&mut mem);
        assert_eq!(mem.read_u8(layout::CODE_BASE), Opcode::Movi.byte());
        assert_eq!(mem.read_bytes(layout::DATA_BASE, 3), vec![9, 9, 9]);
    }

    #[test]
    fn decoded_view_matches_modes() {
        let p = tiny_program();
        let sempe = p.decoded(DecodeMode::Sempe).unwrap();
        let legacy = p.decoded(DecodeMode::Legacy).unwrap();
        assert_eq!(sempe.len(), legacy.len());
        // Instruction 2 (index into iteration) is the secure branch.
        let s: Vec<_> = sempe.iter().collect();
        let l: Vec<_> = legacy.iter().collect();
        assert!(s[1].1.is_sjmp());
        assert!(!l[1].1.secure);
        assert!(s[3].1.is_eosjmp());
        assert_eq!(l[3].1.op, Opcode::Nop);
        // Same addresses in both modes.
        for (a, b) in s.iter().zip(&l) {
            assert_eq!(a.0, b.0);
        }
    }

    #[test]
    fn fetch_faults_outside_and_mid_instruction() {
        let p = tiny_program();
        let d = p.decoded(DecodeMode::Sempe).unwrap();
        assert!(d.fetch(d.entry()).is_ok());
        // MOVI is 10 bytes; entry+1 is mid-instruction.
        assert!(matches!(d.fetch(d.entry() + 1), Err(ExecError::FetchFault { .. })));
        assert!(matches!(d.fetch(0), Err(ExecError::FetchFault { .. })));
        assert_eq!(d.try_fetch(0), None);
    }

    #[test]
    fn symbols_resolve() {
        let p = tiny_program();
        assert_eq!(p.symbol("start"), Some(layout::CODE_BASE));
        assert_eq!(p.symbol("missing"), None);
    }
}

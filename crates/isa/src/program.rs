//! Linked program images: code bytes, initial data, symbols — plus the
//! decoded view used for execution.

use std::collections::BTreeMap;

use crate::decode::{decode_region, DecodeMode};
use crate::error::{DecodeError, ExecError};
use crate::insn::Inst;
use crate::mem::Memory;
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

    /// Load code and initial data into a memory image.
    pub fn load_into(&self, mem: &mut Memory) {
        mem.load_image(self.code_base, &self.code);
        for (addr, image) in &self.data {
            mem.load_image(*addr, image);
        }
    }

    /// Decode the whole code region with the given front end.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] in the image.
    pub fn decoded(&self, mode: DecodeMode) -> Result<DecodedProgram, DecodeError> {
        let decoded = decode_region(&self.code, self.code_base, mode)?;
        let mut insts = Vec::with_capacity(decoded.len());
        let mut starts = vec![NO_INST; self.code.len()];
        for (addr, inst, len) in decoded {
            let off = (addr - self.code_base) as usize;
            starts[off] = insts.len() as u32;
            insts.push((inst, len as u8));
        }
        Ok(DecodedProgram {
            entry: self.entry,
            code_base: self.code_base,
            code_end: self.code_base + self.code.len() as Addr,
            insts,
            starts,
        })
    }
}

/// Sentinel in the byte-offset index marking "no instruction starts here".
const NO_INST: u32 = u32::MAX;

/// A program decoded for execution: instruction lookup by address.
///
/// The cycle-level simulator still charges instruction-cache timing for the
/// *bytes*; this structure only provides the semantic view, the way a
/// decoded-µop structure would.
///
/// Lookup is a dense, offset-indexed array rather than a hash map: the
/// simulator front end fetches up to 8 instructions per simulated cycle,
/// so [`DecodedProgram::try_fetch`] is one of the hottest operations in
/// the whole reproduction. `starts[pc - code_base]` resolves a byte
/// offset to an index into the address-ordered instruction array (or the
/// `NO_INST` sentinel for mid-instruction offsets), making both fetch
/// paths two bounds-checked array reads.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    entry: Addr,
    code_base: Addr,
    code_end: Addr,
    /// `(instruction, encoded length)` in address order.
    insts: Vec<(Inst, u8)>,
    /// Per code byte: index into `insts` when an instruction starts at
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
        self.insts.len()
    }

    /// Is the program empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
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

    /// Fetch without failing: `None` for a bad `pc`. Used by the simulator
    /// front end while running down a wrong path — O(1), two array reads.
    #[must_use]
    #[inline]
    pub fn try_fetch(&self, pc: Addr) -> Option<(Inst, usize)> {
        let off = pc.wrapping_sub(self.code_base);
        match self.starts.get(off as usize) {
            Some(&idx) if idx != NO_INST => {
                let (inst, len) = self.insts[idx as usize];
                Some((inst, len as usize))
            }
            _ => None,
        }
    }

    /// Iterate over `(addr, inst)` pairs in address order. Walks the
    /// dense instruction array directly; no per-call collection or sort.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, Inst)> + '_ {
        let base = self.code_base;
        let mut offset: Addr = 0;
        self.insts.iter().map(move |&(inst, len)| {
            let addr = base + offset;
            offset += len as Addr;
            (addr, inst)
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

//! Lowering WIR to SIR machine code, three ways.
//!
//! * [`Backend::Baseline`] — ordinary branches; secret annotations are
//!   ignored. This is the unprotected reference the paper normalizes
//!   execution times against.
//! * [`Backend::Sempe`] — secret `if`s become sJMP/eosJMP secure regions.
//!   Every scalar written inside either path is privatized to per-path
//!   **ShadowMemory** slots, copied in before the region and merged after
//!   the `eosJMP` with **CMOV** — the paper's §V worst case (all written
//!   variables privatized). The emitted binary is backward compatible: on
//!   a legacy front end the sJMP degrades to a plain branch and the
//!   shadow/merge code still computes the correct result.
//! * [`Backend::Cte`] — FaCT-style constant-time expressions: no secret
//!   branches at all. Each secret condition becomes a 0/1 bit in memory;
//!   every statement under secret control re-derives the full mask
//!   product of its enclosing conditions (the paper's Figure 2b shape,
//!   which is precisely what makes CTE cost grow super-linearly with
//!   nesting) and blends old/new values. Loops under secret control run
//!   to their public bound with an accumulated activity mask.
//!
//! The lowering is deliberately `-O0`-flavoured (each variable lives in
//! memory, expression temporaries in `t0..t7`), mirroring the paper's
//! compilation discipline for secure regions: "compiled with
//! optimizations disabled to ensure that optimization does not
//! inadvertently reintroduce a side channel."

use core::fmt;
use std::collections::BTreeSet;

use sempe_isa::asm::Asm;
use sempe_isa::mem::{word_image, Memory};
use sempe_isa::program::Program;
use sempe_isa::reg::{abi, Reg};
use sempe_isa::Addr;

use crate::wir::{ArrId, BinOp, Expr, Stmt, VarId, WirProgram};

/// Which lowering strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Plain branches, no protection.
    Baseline,
    /// sJMP/eosJMP secure regions with ShadowMemory + CMOV.
    Sempe,
    /// Constant-time expressions (FaCT-style).
    Cte,
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backend::Baseline => f.write_str("baseline"),
            Backend::Sempe => f.write_str("sempe"),
            Backend::Cte => f.write_str("cte"),
        }
    }
}

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// An expression exceeded the register-stack depth of the lowering.
    ExprTooDeep {
        /// The offending depth.
        depth: usize,
        /// Registers available.
        limit: usize,
    },
    /// Assembly failed (offset overflow etc.).
    Asm(sempe_isa::AsmError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::ExprTooDeep { depth, limit } => {
                write!(f, "expression depth {depth} exceeds the {limit}-register evaluation stack")
            }
            CompileError::Asm(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<sempe_isa::AsmError> for CompileError {
    fn from(e: sempe_isa::AsmError) -> Self {
        CompileError::Asm(e)
    }
}

/// A compiled workload: the binary plus the metadata needed to inject
/// inputs and read outputs.
#[derive(Debug, Clone)]
pub struct CompiledWorkload {
    program: Program,
    backend: Backend,
    vars_base: Addr,
    var_offsets: Vec<i64>,
    outputs: Vec<VarId>,
    /// (base address, element count) of every declared array.
    arr_layout: Vec<(Addr, usize)>,
}

impl CompiledWorkload {
    /// The linked program image.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Which backend produced it.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Absolute address of a scalar's memory slot.
    #[must_use]
    pub fn var_addr(&self, v: VarId) -> Addr {
        (self.vars_base as i64 + self.var_offsets[v.0]) as Addr
    }

    /// Read a scalar's final value from a finished machine's memory.
    #[must_use]
    pub fn read_var(&self, mem: &Memory, v: VarId) -> u64 {
        mem.read_u64(self.var_addr(v))
    }

    /// Read the declared outputs from a finished machine's memory.
    #[must_use]
    pub fn read_outputs(&self, mem: &Memory) -> Vec<u64> {
        self.outputs.iter().map(|v| self.read_var(mem, *v)).collect()
    }

    /// Absolute base address of an array's (non-shadow) storage.
    #[must_use]
    pub fn arr_addr(&self, a: ArrId) -> Addr {
        self.arr_layout[a.0].0
    }

    /// Read an array's full final contents from a finished machine's
    /// memory — the differential fuzzer compares this against the WIR
    /// interpreter's final array state.
    #[must_use]
    pub fn read_array(&self, mem: &Memory, a: ArrId) -> Vec<u64> {
        let (base, len) = self.arr_layout[a.0];
        (0..len).map(|i| mem.read_u64(base + (i as Addr) * 8)).collect()
    }

    /// Read every array's final contents, in declaration order.
    #[must_use]
    pub fn read_arrays(&self, mem: &Memory) -> Vec<Vec<u64>> {
        (0..self.arr_layout.len()).map(|i| self.read_array(mem, ArrId(i))).collect()
    }
}

/// Expression evaluation stack: `t0..t7`.
const EVAL_REGS: usize = 8;

/// The deepest expression a **level-0 lowering site** accepts —
/// conditions and assignment/store *values*, which are evaluated from
/// the bottom of the `t0..t7` stack, so AST depth may equal the stack
/// size exactly. Store/load *index* expressions are evaluated one
/// register up (level 1) and accept one level less. WIR-to-WIR
/// transforms that grow expressions — [`crate::opt::collapse_nested_ifs`]
/// conjoins two normalized conditions — must stay within the limit of
/// the site they rewrite or they turn a compilable program into one
/// that is not.
pub const MAX_EXPR_DEPTH: usize = EVAL_REGS;
/// Frame base register (holds the scalar-slot base address).
const FRAME: Reg = abi::K[7];
/// Address scratch.
const ADDR_SCRATCH: Reg = abi::K[0];

fn t(level: usize) -> Reg {
    abi::T[level]
}

struct Lowerer<'p> {
    prog: &'p WirProgram,
    backend: Backend,
    a: Asm,
    vars_base: Addr,
    /// Base (un-shadowed) offset of each scalar from `vars_base`.
    base_off: Vec<i64>,
    /// Shadow redirections, innermost last: (var, offset).
    redirects: Vec<(VarId, i64)>,
    /// Array shadow redirections, innermost last: (array, base address).
    arr_redirects: Vec<(ArrId, Addr)>,
    /// CTE mask stack: (bit-slot offset, negated).
    cte_masks: Vec<(i64, bool)>,
    /// Absolute base address of each array.
    arr_base: Vec<Addr>,
}

impl<'p> Lowerer<'p> {
    fn new(prog: &'p WirProgram, backend: Backend) -> Self {
        let mut a = Asm::new();
        // Scalar frame, *initialized in the data image* rather than by a
        // movi/store prologue: the emitted code is then byte-identical for
        // every choice of initial values, so a checkpoint/fork engine can
        // reuse one compiled binary across secret candidates by patching
        // the data words alone (and the instruction stream trivially
        // cannot depend on the initializers, secrets included).
        let vars_base =
            if prog.var_count() == 0 { a.zero_data(8) } else { a.data_words(&prog.var_init) };
        let base_off: Vec<i64> = (0..prog.var_count()).map(|i| (i * 8) as i64).collect();
        // Arrays (with initializers): each one's zero-padded image is
        // encoded once, straight into the buffer the data segment keeps.
        let arr_base =
            prog.arrays().iter().map(|d| a.data_bytes(word_image(&d.init, d.len))).collect();
        Lowerer {
            prog,
            backend,
            a,
            vars_base,
            base_off,
            redirects: Vec::new(),
            arr_redirects: Vec::new(),
            cte_masks: Vec::new(),
            arr_base,
        }
    }

    /// Allocate a fresh compiler-internal 8-byte slot; returns its offset
    /// from the frame base.
    fn fresh_slot(&mut self) -> i64 {
        let addr = self.a.zero_data(8);
        addr as i64 - self.vars_base as i64
    }

    /// Effective offset of a scalar under the current redirections.
    fn off(&self, v: VarId) -> i64 {
        self.redirects.iter().rev().find(|(rv, _)| *rv == v).map_or(self.base_off[v.0], |(_, o)| *o)
    }

    /// Effective base address of an array under the current redirections.
    fn arr_addr(&self, a: ArrId) -> Addr {
        self.arr_redirects
            .iter()
            .rev()
            .find(|(ra, _)| *ra == a)
            .map_or(self.arr_base[a.0], |(_, addr)| *addr)
    }

    fn load_var(&mut self, dst: Reg, v: VarId) {
        let off = self.off(v);
        self.a.ld(dst, FRAME, off);
    }

    fn store_var(&mut self, src: Reg, v: VarId) {
        let off = self.off(v);
        self.a.st(FRAME, src, off);
    }

    /// Evaluate `e` into `t(level)`, using `t(level..)` as scratch.
    fn eval(&mut self, e: &Expr, level: usize) -> Result<(), CompileError> {
        if level >= EVAL_REGS {
            return Err(CompileError::ExprTooDeep { depth: level + 1, limit: EVAL_REGS });
        }
        match e {
            Expr::Const(c) => self.a.movi(t(level), *c as i64),
            Expr::Var(v) => self.load_var(t(level), *v),
            Expr::Bin(op, x, y) => {
                self.eval(x, level)?;
                self.eval(y, level + 1)?;
                let (d, s1, s2) = (t(level), t(level), t(level + 1));
                match op {
                    BinOp::Add => self.a.add(d, s1, s2),
                    BinOp::Sub => self.a.sub(d, s1, s2),
                    BinOp::Mul => self.a.mul(d, s1, s2),
                    BinOp::And => self.a.and(d, s1, s2),
                    BinOp::Or => self.a.or(d, s1, s2),
                    BinOp::Xor => self.a.xor(d, s1, s2),
                    BinOp::Shl => self.a.sll(d, s1, s2),
                    BinOp::Shr => self.a.srl(d, s1, s2),
                    BinOp::Ltu => self.a.sltu(d, s1, s2),
                    BinOp::Lt => self.a.slt(d, s1, s2),
                    BinOp::Eq => self.a.seq(d, s1, s2),
                    BinOp::Ne => {
                        self.a.seq(d, s1, s2);
                        self.a.xori(d, d, 1);
                    }
                    BinOp::Rem => {
                        // Total remainder: guard the divider so a zero
                        // divisor (possible in masked-off constant-time
                        // lanes) yields 0 instead of faulting.
                        self.a.seq(ADDR_SCRATCH, s2, Reg::X0); // 1 if b == 0
                        self.a.or(s2, s2, ADDR_SCRATCH); // divisor 1 if it was 0
                        self.a.remu(d, s1, s2);
                        self.a.cmovnz(d, Reg::X0, ADDR_SCRATCH); // 0 if b was 0
                    }
                }
            }
            Expr::Load(arr, idx) => {
                self.eval(idx, level)?;
                self.a.slli(t(level), t(level), 3);
                self.a.movi(ADDR_SCRATCH, self.arr_addr(*arr) as i64);
                self.a.add(ADDR_SCRATCH, ADDR_SCRATCH, t(level));
                self.a.ld(t(level), ADDR_SCRATCH, 0);
            }
        }
        Ok(())
    }

    /// Compute the product of the active CTE masks into `dst`
    /// (all-ones when every enclosing condition is live).
    ///
    /// Faithful to Figure 2b: the full product is re-derived from the
    /// stored condition bits at **every statement**, which is where CTE's
    /// super-linear nesting cost comes from.
    fn emit_mask(&mut self, dst: Reg, scratch: Reg) {
        self.a.movi(dst, -1);
        let masks = self.cte_masks.clone();
        for (boff, negated) in masks {
            self.a.ld(scratch, FRAME, boff);
            if negated {
                self.a.xori(scratch, scratch, 1);
            }
            // 0/1 -> 0 / all-ones.
            self.a.sub(scratch, Reg::X0, scratch);
            self.a.and(dst, dst, scratch);
        }
    }

    /// Blend `new_val` (in `t(l)`) with the current contents of a
    /// location per the active mask, leaving the result in `t(l)`.
    /// `load_old`/`store_new` abstract the location.
    fn lower_masked_assign(&mut self, v: VarId, e: &Expr) -> Result<(), CompileError> {
        // t0 = new value, t1 = mask, t2 = old value.
        self.eval(e, 0)?;
        self.emit_mask(t(1), t(2));
        self.load_var(t(2), v);
        self.a.and(t(0), t(0), t(1)); // new & M
        self.a.xori(t(1), t(1), -1); // ~M
        self.a.and(t(2), t(2), t(1)); // old & ~M
        self.a.or(t(0), t(0), t(2));
        self.store_var(t(0), v);
        Ok(())
    }

    fn lower_masked_store(
        &mut self,
        arr: ArrId,
        idx: &Expr,
        val: &Expr,
    ) -> Result<(), CompileError> {
        // Evaluate value then index before forming the address (a Load in
        // either would clobber the scratch address register), then blend:
        // t0 = value, t1 = mask, t2 = old.
        self.eval(val, 0)?;
        self.eval(idx, 1)?;
        self.a.slli(t(1), t(1), 3);
        self.a.movi(ADDR_SCRATCH, self.arr_addr(arr) as i64);
        self.a.add(ADDR_SCRATCH, ADDR_SCRATCH, t(1));
        self.emit_mask(t(1), t(2));
        self.a.ld(t(2), ADDR_SCRATCH, 0);
        self.a.and(t(0), t(0), t(1)); // new & M
        self.a.xori(t(1), t(1), -1); // ~M
        self.a.and(t(2), t(2), t(1)); // old & ~M
        self.a.or(t(0), t(0), t(2));
        self.a.st(ADDR_SCRATCH, t(0), 0);
        Ok(())
    }

    /// Collect every scalar written anywhere inside `stmts` (recursively).
    fn written_vars(stmts: &[Stmt], out: &mut BTreeSet<VarId>) {
        for s in stmts {
            match s {
                Stmt::Assign(v, _) => {
                    out.insert(*v);
                }
                Stmt::Store(..) => {}
                Stmt::If { then_, else_, .. } => {
                    Self::written_vars(then_, out);
                    Self::written_vars(else_, out);
                }
                Stmt::While { body, .. } => Self::written_vars(body, out),
            }
        }
    }

    /// Collect every array written anywhere inside `stmts` (recursively).
    fn written_arrays(stmts: &[Stmt], out: &mut BTreeSet<ArrId>) {
        for s in stmts {
            match s {
                Stmt::Store(a, ..) => {
                    out.insert(*a);
                }
                Stmt::Assign(..) => {}
                Stmt::If { then_, else_, .. } => {
                    Self::written_arrays(then_, out);
                    Self::written_arrays(else_, out);
                }
                Stmt::While { body, .. } => Self::written_arrays(body, out),
            }
        }
    }

    /// Emit a loop copying `len` words from `src` into both shadow copies.
    fn emit_array_copy2(
        &mut self,
        src: Addr,
        dst_then: Addr,
        dst_else: Addr,
        len: usize,
    ) -> Result<(), CompileError> {
        let top = self.a.fresh_label("cp");
        let end = self.a.fresh_label("cpend");
        self.a.movi(t(0), 0);
        self.a.movi(t(1), len as i64);
        self.a.bind(top)?;
        self.a.bgeu(t(0), t(1), end);
        self.a.slli(t(2), t(0), 3);
        self.a.movi(abi::K[0], src as i64);
        self.a.add(abi::K[0], abi::K[0], t(2));
        self.a.ld(t(3), abi::K[0], 0);
        self.a.movi(abi::K[1], dst_then as i64);
        self.a.add(abi::K[1], abi::K[1], t(2));
        self.a.st(abi::K[1], t(3), 0);
        self.a.movi(abi::K[2], dst_else as i64);
        self.a.add(abi::K[2], abi::K[2], t(2));
        self.a.st(abi::K[2], t(3), 0);
        self.a.addi(t(0), t(0), 1);
        self.a.jmp(top);
        self.a.bind(end)?;
        Ok(())
    }

    /// Emit the constant-time post-region merge of an array: for every
    /// element, `real[i] = cond ? shadow_then[i] : shadow_else[i]` via
    /// CMOV — the loop structure and memory traffic are identical for
    /// both outcomes.
    fn emit_array_merge(
        &mut self,
        real: Addr,
        sh_then: Addr,
        sh_else: Addr,
        len: usize,
        cond_slot: i64,
    ) -> Result<(), CompileError> {
        let top = self.a.fresh_label("mg");
        let end = self.a.fresh_label("mgend");
        self.a.movi(t(0), 0);
        self.a.movi(t(1), len as i64);
        self.a.bind(top)?;
        self.a.bgeu(t(0), t(1), end);
        self.a.slli(t(2), t(0), 3);
        self.a.movi(abi::K[1], sh_else as i64);
        self.a.add(abi::K[1], abi::K[1], t(2));
        self.a.ld(t(3), abi::K[1], 0);
        self.a.movi(abi::K[2], sh_then as i64);
        self.a.add(abi::K[2], abi::K[2], t(2));
        self.a.ld(t(4), abi::K[2], 0);
        self.a.ld(t(5), FRAME, cond_slot);
        self.a.cmovnz(t(3), t(4), t(5));
        self.a.movi(abi::K[0], real as i64);
        self.a.add(abi::K[0], abi::K[0], t(2));
        self.a.st(abi::K[0], t(3), 0);
        self.a.addi(t(0), t(0), 1);
        self.a.jmp(top);
        self.a.bind(end)?;
        Ok(())
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        let in_cte_region = self.backend == Backend::Cte && !self.cte_masks.is_empty();
        match s {
            Stmt::Assign(v, e) => {
                if in_cte_region {
                    self.lower_masked_assign(*v, e)?;
                } else {
                    self.eval(e, 0)?;
                    self.store_var(t(0), *v);
                }
            }
            Stmt::Store(arr, idx, val) => {
                if in_cte_region {
                    self.lower_masked_store(*arr, idx, val)?;
                } else {
                    // Evaluate everything before forming the address:
                    // a Load inside `val` would clobber the scratch
                    // address register.
                    self.eval(val, 0)?;
                    self.eval(idx, 1)?;
                    self.a.slli(t(1), t(1), 3);
                    self.a.movi(ADDR_SCRATCH, self.arr_addr(*arr) as i64);
                    self.a.add(ADDR_SCRATCH, ADDR_SCRATCH, t(1));
                    self.a.st(ADDR_SCRATCH, t(0), 0);
                }
            }
            Stmt::If { cond, secret, then_, else_ } => {
                let as_cte = self.backend == Backend::Cte && (*secret || in_cte_region);
                let as_sempe = self.backend == Backend::Sempe && *secret;
                if as_cte {
                    self.lower_cte_if(cond, then_, else_)?;
                } else if as_sempe {
                    self.lower_sempe_if(cond, then_, else_)?;
                } else {
                    self.lower_branchy_if(cond, then_, else_)?;
                }
            }
            Stmt::While { cond, bound, body } => {
                if in_cte_region {
                    self.lower_cte_while(cond, *bound, body)?;
                } else {
                    self.lower_branchy_while(cond, body)?;
                }
            }
        }
        Ok(())
    }

    /// Ordinary two-armed conditional.
    fn lower_branchy_if(
        &mut self,
        cond: &Expr,
        then_: &[Stmt],
        else_: &[Stmt],
    ) -> Result<(), CompileError> {
        let lthen = self.a.fresh_label("then");
        let ljoin = self.a.fresh_label("join");
        self.eval(cond, 0)?;
        self.a.bne(t(0), Reg::X0, lthen);
        self.lower_stmts(else_)?;
        self.a.jmp(ljoin);
        self.a.bind(lthen)?;
        self.lower_stmts(then_)?;
        self.a.bind(ljoin)?;
        Ok(())
    }

    /// Secure region: sJMP + ShadowMemory privatization + CMOV merge.
    fn lower_sempe_if(
        &mut self,
        cond: &Expr,
        then_: &[Stmt],
        else_: &[Stmt],
    ) -> Result<(), CompileError> {
        // The condition is saved to memory before the region: the merge
        // code after the eosJMP needs it, and registers inside the region
        // are snapshot-restored by ArchRS anyway.
        let cond_slot = self.fresh_slot();
        self.eval(cond, 0)?;
        self.a.st(FRAME, t(0), cond_slot);

        // Privatize every scalar either path writes (worst case, §V).
        let mut written = BTreeSet::new();
        Self::written_vars(then_, &mut written);
        Self::written_vars(else_, &mut written);
        let written: Vec<VarId> = written.into_iter().collect();
        let mut shadows: Vec<(VarId, i64, i64)> = Vec::new();
        for v in &written {
            let sh_then = self.fresh_slot();
            let sh_else = self.fresh_slot();
            let cur = self.off(*v);
            self.a.ld(t(0), FRAME, cur);
            self.a.st(FRAME, t(0), sh_then);
            self.a.st(FRAME, t(0), sh_else);
            shadows.push((*v, sh_then, sh_else));
        }

        // Privatize every non-scratch array either path writes: copy in,
        // redirect, merge out ("this memory is just a copy of the memory
        // allocated before the secure region, that will be written only
        // after the eosJMP by the CMOV instruction" — §VI-A).
        let mut warrs = BTreeSet::new();
        Self::written_arrays(then_, &mut warrs);
        Self::written_arrays(else_, &mut warrs);
        let mut arr_shadows: Vec<(ArrId, Addr, Addr, Addr, usize)> = Vec::new();
        for arr in warrs {
            let decl = &self.prog.arrays()[arr.0];
            if decl.scratch {
                continue;
            }
            let len = decl.len;
            let real = self.arr_addr(arr);
            let sh_then = self.a.zero_data(len * 8);
            let sh_else = self.a.zero_data(len * 8);
            self.emit_array_copy2(real, sh_then, sh_else, len)?;
            arr_shadows.push((arr, real, sh_then, sh_else, len));
        }

        // The secure branch itself.
        let lthen = self.a.fresh_label("sthen");
        let ljoin = self.a.fresh_label("sjoin");
        self.a.ld(t(0), FRAME, cond_slot);
        self.a.sbne(t(0), Reg::X0, lthen);

        // Not-taken path (else) first, against its shadows.
        let depth_before = self.redirects.len();
        let arr_depth_before = self.arr_redirects.len();
        for (v, _, sh_else) in &shadows {
            self.redirects.push((*v, *sh_else));
        }
        for (arr, _, _, sh_else, _) in &arr_shadows {
            self.arr_redirects.push((*arr, *sh_else));
        }
        self.lower_stmts(else_)?;
        self.redirects.truncate(depth_before);
        self.arr_redirects.truncate(arr_depth_before);
        self.a.jmp(ljoin);

        // Taken path, against its shadows.
        self.a.bind(lthen)?;
        for (v, sh_then, _) in &shadows {
            self.redirects.push((*v, *sh_then));
        }
        for (arr, _, sh_then, _, _) in &arr_shadows {
            self.arr_redirects.push((*arr, *sh_then));
        }
        self.lower_stmts(then_)?;
        self.redirects.truncate(depth_before);
        self.arr_redirects.truncate(arr_depth_before);

        // Join point.
        self.a.bind(ljoin)?;
        self.a.eosjmp();

        // CMOV merge: constant-time, executed once, outside the region.
        for (v, sh_then, sh_else) in &shadows {
            self.a.ld(t(0), FRAME, *sh_else);
            self.a.ld(t(1), FRAME, *sh_then);
            self.a.ld(t(2), FRAME, cond_slot);
            self.a.cmovnz(t(0), t(1), t(2));
            let off = self.off(*v);
            self.a.st(FRAME, t(0), off);
        }
        for (_, real, sh_then, sh_else, len) in &arr_shadows {
            self.emit_array_merge(*real, *sh_then, *sh_else, *len, cond_slot)?;
        }
        Ok(())
    }

    /// Constant-time conditional: store the condition bit, predicate both
    /// arms, never branch.
    fn lower_cte_if(
        &mut self,
        cond: &Expr,
        then_: &[Stmt],
        else_: &[Stmt],
    ) -> Result<(), CompileError> {
        let bit_slot = self.fresh_slot();
        self.eval(cond, 0)?;
        // Normalize to 0/1.
        self.a.sltu(t(0), Reg::X0, t(0));
        self.a.st(FRAME, t(0), bit_slot);

        self.cte_masks.push((bit_slot, false));
        self.lower_stmts(then_)?;
        self.cte_masks.pop();

        self.cte_masks.push((bit_slot, true));
        self.lower_stmts(else_)?;
        self.cte_masks.pop();
        Ok(())
    }

    /// Ordinary while-loop.
    fn lower_branchy_while(&mut self, cond: &Expr, body: &[Stmt]) -> Result<(), CompileError> {
        let ltop = self.a.fresh_label("wtop");
        let lend = self.a.fresh_label("wend");
        self.a.bind(ltop)?;
        self.eval(cond, 0)?;
        self.a.beq(t(0), Reg::X0, lend);
        self.lower_stmts(body)?;
        self.a.jmp(ltop);
        self.a.bind(lend)?;
        Ok(())
    }

    /// Constant-time loop: run exactly `bound` iterations; maintain an
    /// activity bit `active &= (cond != 0)` that predicates the body.
    /// The trip counter is public, so its branch is allowed.
    fn lower_cte_while(
        &mut self,
        cond: &Expr,
        bound: u32,
        body: &[Stmt],
    ) -> Result<(), CompileError> {
        let active_slot = self.fresh_slot();
        let counter_slot = self.fresh_slot();
        self.a.movi(t(0), 1);
        self.a.st(FRAME, t(0), active_slot);
        self.a.movi(t(0), 0);
        self.a.st(FRAME, t(0), counter_slot);

        let ltop = self.a.fresh_label("ctop");
        let lend = self.a.fresh_label("cend");
        self.a.bind(ltop)?;
        // Public trip-count check.
        self.a.ld(t(0), FRAME, counter_slot);
        self.a.movi(t(1), i64::from(bound));
        self.a.bgeu(t(0), t(1), lend);
        // active &= (cond != 0)
        self.eval(cond, 0)?;
        self.a.sltu(t(0), Reg::X0, t(0));
        self.a.ld(t(1), FRAME, active_slot);
        self.a.and(t(0), t(0), t(1));
        self.a.st(FRAME, t(0), active_slot);
        // Body predicated by the activity bit (plus enclosing masks).
        self.cte_masks.push((active_slot, false));
        self.lower_stmts(body)?;
        self.cte_masks.pop();
        // counter += 1
        self.a.ld(t(0), FRAME, counter_slot);
        self.a.addi(t(0), t(0), 1);
        self.a.st(FRAME, t(0), counter_slot);
        self.a.jmp(ltop);
        self.a.bind(lend)?;
        Ok(())
    }
}

/// Compile a WIR program with the chosen backend.
///
/// # Errors
///
/// [`CompileError`] on over-deep expressions or assembly failures.
pub fn compile(prog: &WirProgram, backend: Backend) -> Result<CompiledWorkload, CompileError> {
    let mut lw = Lowerer::new(prog, backend);
    // Prologue: just the frame base — the scalars' initial values live in
    // the data image (see `Lowerer::new`).
    lw.a.movi(FRAME, lw.vars_base as i64);
    lw.lower_stmts(prog.body())?;
    lw.a.halt();
    let base_off = lw.base_off.clone();
    let vars_base = lw.vars_base;
    let arr_layout =
        lw.arr_base.iter().zip(prog.arrays()).map(|(base, decl)| (*base, decl.len)).collect();
    let program = lw.a.assemble()?;
    Ok(CompiledWorkload {
        program,
        backend,
        vars_base,
        var_offsets: base_off,
        outputs: prog.outputs().to_vec(),
        arr_layout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wir::WirBuilder;
    use sempe_isa::interp::{Interp, InterpMode};

    fn run_compiled(cw: &CompiledWorkload, mode: InterpMode) -> Vec<u64> {
        let mut i = Interp::new(cw.program(), mode).expect("interp");
        i.run(50_000_000).expect("halts");
        cw.read_outputs(i.mem())
    }

    fn select_program() -> (crate::wir::WirProgram, VarId) {
        let mut b = WirBuilder::new();
        let s = b.var("s", 0);
        let out = b.var("out", 0);
        b.if_secret(
            Expr::Var(s),
            vec![b.assign(out, Expr::Const(10))],
            vec![b.assign(out, Expr::Const(20))],
        );
        b.output(out);
        (b.build(), s)
    }

    #[test]
    fn all_backends_compute_the_select() {
        let (prog, _) = select_program();
        for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
            let cw = compile(&prog, backend).expect("compiles");
            // secret initialized to 0: else branch.
            assert_eq!(run_compiled(&cw, InterpMode::Legacy), vec![20], "{backend}");
        }
    }

    #[test]
    fn sempe_binary_is_correct_on_both_front_ends() {
        // Same binary: secure semantics and legacy semantics agree —
        // the paper's bidirectional compatibility claim.
        let mut b = WirBuilder::new();
        let s = b.var("s", 1);
        let out = b.var("out", 3);
        b.if_secret(
            Expr::Var(s),
            vec![b.assign(out, Expr::bin(BinOp::Add, Expr::Var(out), Expr::Const(100)))],
            vec![b.assign(out, Expr::bin(BinOp::Mul, Expr::Var(out), Expr::Const(5)))],
        );
        b.output(out);
        let prog = b.build();
        let cw = compile(&prog, Backend::Sempe).unwrap();
        assert_eq!(run_compiled(&cw, InterpMode::Legacy), vec![103]);
        assert_eq!(run_compiled(&cw, InterpMode::SempeFunctional), vec![103]);
    }

    #[test]
    fn cte_emits_no_secret_branches() {
        let (prog, _) = select_program();
        let cw = compile(&prog, Backend::Cte).unwrap();
        let decoded = cw.program().decoded(sempe_isa::DecodeMode::Sempe).unwrap();
        assert!(
            decoded.iter().all(|(_, i)| !i.is_sjmp() && !i.is_eosjmp()),
            "CTE must not contain secure instructions"
        );
        // And the instruction count it *executes* must not depend on the
        // secret (no branches on the secret at all).
        let mut counts = Vec::new();
        for secret in [0u64, 1] {
            let mut i = Interp::new(cw.program(), InterpMode::Legacy).unwrap();
            // Poke the secret directly into its slot pre-run.
            let (p2, s) = select_program();
            let cw2 = compile(&p2, Backend::Cte).unwrap();
            i.mem_mut().write_u64(cw2.var_addr(s), secret);
            let summary = i.run(1_000_000).unwrap();
            counts.push(summary.committed);
        }
        assert_eq!(counts[0], counts[1], "CTE instruction counts must be secret-independent");
    }

    #[test]
    fn nested_secret_ifs_compile_on_all_backends() {
        for (s1, s2, want) in [(0u64, 0u64, 3u64), (0, 1, 2), (1, 0, 1), (1, 1, 1)] {
            let mut b = WirBuilder::new();
            let v1 = b.var("s1", s1);
            let v2 = b.var("s2", s2);
            let out = b.var("out", 0);
            let inner = Stmt::If {
                cond: Expr::Var(v2),
                secret: true,
                then_: vec![b.assign(out, Expr::Const(2))],
                else_: vec![b.assign(out, Expr::Const(3))],
            };
            b.if_secret(Expr::Var(v1), vec![b.assign(out, Expr::Const(1))], vec![inner]);
            b.output(out);
            let prog = b.build();
            for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
                let cw = compile(&prog, backend).unwrap();
                assert_eq!(
                    run_compiled(&cw, InterpMode::Legacy),
                    vec![want],
                    "{backend} s1={s1} s2={s2}"
                );
                if backend == Backend::Sempe {
                    assert_eq!(
                        run_compiled(&cw, InterpMode::SempeFunctional),
                        vec![want],
                        "sempe-functional s1={s1} s2={s2}"
                    );
                }
            }
        }
    }

    #[test]
    fn cte_loop_with_secret_dependent_trip_count() {
        // while (i < n) { acc += i; i += 1 } with n secret: CTE pads to the
        // bound.
        for n in [0u64, 3, 7] {
            let mut b = WirBuilder::new();
            let nv = b.var("n", n);
            let i = b.var("i", 0);
            let acc = b.var("acc", 0);
            let body = vec![
                b.assign(acc, Expr::bin(BinOp::Add, Expr::Var(acc), Expr::Var(i))),
                b.assign(i, Expr::bin(BinOp::Add, Expr::Var(i), Expr::Const(1))),
            ];
            // The loop lives inside a secret region so CTE predicates it.
            b.if_secret(
                Expr::Const(1),
                vec![Stmt::While {
                    cond: Expr::bin(BinOp::Ltu, Expr::Var(i), Expr::Var(nv)),
                    bound: 8,
                    body,
                }],
                vec![],
            );
            b.output(acc);
            let prog = b.build();
            let want: u64 = (0..n).sum();
            for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
                let cw = compile(&prog, backend).unwrap();
                assert_eq!(run_compiled(&cw, InterpMode::Legacy), vec![want], "{backend} n={n}");
            }
        }
    }

    #[test]
    fn expression_depth_limit_is_enforced() {
        let mut b = WirBuilder::new();
        let x = b.var("x", 1);
        let mut e = Expr::Var(x);
        for _ in 0..10 {
            e = Expr::bin(BinOp::Add, Expr::Const(1), e);
        }
        b.push(b.assign(x, e));
        let err = compile(&b.build(), Backend::Baseline).unwrap_err();
        assert!(matches!(err, CompileError::ExprTooDeep { .. }));
    }

    #[test]
    fn arrays_are_initialized_and_writable() {
        let mut b = WirBuilder::new();
        let arr = b.array("a", 4, vec![5, 6, 7, 8]);
        let out = b.var("out", 0);
        b.push(b.store(arr, Expr::Const(1), Expr::Const(60)));
        b.push(b.assign(
            out,
            Expr::bin(
                BinOp::Add,
                Expr::Load(arr, Box::new(Expr::Const(1))),
                Expr::Load(arr, Box::new(Expr::Const(3))),
            ),
        ));
        b.output(out);
        let prog = b.build();
        for backend in [Backend::Baseline, Backend::Sempe, Backend::Cte] {
            let cw = compile(&prog, backend).unwrap();
            assert_eq!(run_compiled(&cw, InterpMode::Legacy), vec![68], "{backend}");
        }
    }
}

//! Register renaming: the register alias table (RAT), the physical
//! register files (256 INT + 256 FP per Table II), free lists, and ready
//! bits. Branch recovery uses RAT checkpoints taken at rename.

use sempe_isa::reg::{Reg, NUM_ARCH_REGS};

/// A physical register name. Integer physical registers occupy indices
/// `0..int_count`; floating-point ones `int_count..int_count+fp_count`.
pub type PhysReg = u16;

/// A snapshot of the RAT for squash recovery.
pub type RatCheckpoint = [PhysReg; NUM_ARCH_REGS];

/// Rename state: RAT + physical register files + free lists.
#[derive(Debug)]
pub struct RenameState {
    rat: RatCheckpoint,
    vals: Vec<u64>,
    ready: Vec<bool>,
    free_int: Vec<PhysReg>,
    free_fp: Vec<PhysReg>,
    int_count: usize,
}

clone_in_place!(RenameState { rat, vals, ready, free_int, free_fp, int_count });

impl RenameState {
    /// Build rename state with the given pool sizes, mapping every
    /// architectural register to a ready physical register holding
    /// `initial[arch]`.
    ///
    /// # Panics
    ///
    /// Panics if either pool is too small to map the architectural state
    /// (needs ≥ 32 INT and ≥ 16 FP).
    #[must_use]
    pub fn new(int_count: usize, fp_count: usize, initial: &[u64; NUM_ARCH_REGS]) -> Self {
        let mut state = RenameState {
            rat: [0; NUM_ARCH_REGS],
            vals: Vec::new(),
            ready: Vec::new(),
            free_int: Vec::new(),
            free_fp: Vec::new(),
            int_count,
        };
        state.reset(int_count, fp_count, initial);
        state
    }

    /// Become `RenameState::new(int_count, fp_count, initial)`, refilling
    /// the register files and free lists in place.
    ///
    /// # Panics
    ///
    /// As [`RenameState::new`].
    pub fn reset(&mut self, int_count: usize, fp_count: usize, initial: &[u64; NUM_ARCH_REGS]) {
        assert!(int_count >= 32 && fp_count >= 16, "physical pools too small");
        let total = int_count + fp_count;
        let RenameState { rat, vals, ready, free_int, free_fp, int_count: count } = self;
        *rat = [0; NUM_ARCH_REGS];
        vals.clear();
        vals.resize(total, 0);
        ready.clear();
        ready.resize(total, false);
        free_int.clear();
        free_int.extend((0..int_count as PhysReg).rev());
        free_fp.clear();
        free_fp.extend((int_count as PhysReg..total as PhysReg).rev());
        *count = int_count;
        for r in Reg::all() {
            let p = self.alloc(r.is_fp()).expect("pool sized above");
            self.rat[r.index()] = p;
            self.vals[p as usize] = initial[r.index()];
            self.ready[p as usize] = true;
        }
    }

    /// Is `p` a floating-point physical register?
    #[must_use]
    pub fn is_fp_phys(&self, p: PhysReg) -> bool {
        (p as usize) >= self.int_count
    }

    /// Free integer registers remaining.
    #[must_use]
    pub fn free_int_count(&self) -> usize {
        self.free_int.len()
    }

    /// Free FP registers remaining.
    #[must_use]
    pub fn free_fp_count(&self) -> usize {
        self.free_fp.len()
    }

    /// Current mapping of an architectural register.
    #[must_use]
    pub fn map(&self, r: Reg) -> PhysReg {
        self.rat[r.index()]
    }

    /// Allocate a physical register from the matching pool.
    pub fn alloc(&mut self, fp: bool) -> Option<PhysReg> {
        if fp {
            self.free_fp.pop()
        } else {
            self.free_int.pop()
        }
    }

    /// Rename `rd` to a fresh physical register. Returns
    /// `(new, previous)`; the previous mapping is freed when the renaming
    /// instruction commits, or re-installed if it squashes.
    pub fn rename_dest(&mut self, rd: Reg) -> Option<(PhysReg, PhysReg)> {
        let fresh = self.alloc(rd.is_fp())?;
        self.ready[fresh as usize] = false;
        let old = self.rat[rd.index()];
        self.rat[rd.index()] = fresh;
        Some((fresh, old))
    }

    /// Return a register to its free list.
    pub fn free(&mut self, p: PhysReg) {
        if self.is_fp_phys(p) {
            self.free_fp.push(p);
        } else {
            self.free_int.push(p);
        }
    }

    /// Value of a physical register.
    #[must_use]
    pub fn value(&self, p: PhysReg) -> u64 {
        self.vals[p as usize]
    }

    /// Is the physical register's value available?
    #[must_use]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.ready[p as usize]
    }

    /// Write a produced value and mark it ready (writeback).
    pub fn write(&mut self, p: PhysReg, val: u64) {
        self.vals[p as usize] = val;
        self.ready[p as usize] = true;
    }

    /// Overwrite the value of an architectural register *through the RAT*
    /// — used to resynchronize the physical file with the committed state
    /// after a SeMPE register restore, when the pipeline is drained.
    pub fn poke_arch(&mut self, r: Reg, val: u64) {
        let p = self.rat[r.index()];
        self.vals[p as usize] = val;
        self.ready[p as usize] = true;
    }

    /// Snapshot the RAT (taken after renaming a branch).
    #[must_use]
    pub fn checkpoint(&self) -> RatCheckpoint {
        self.rat
    }

    /// Restore the RAT from a checkpoint (squash recovery). The caller
    /// frees the squashed instructions' destinations separately.
    pub fn restore(&mut self, cp: &RatCheckpoint) {
        self.rat = *cp;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> RenameState {
        let mut init = [0u64; NUM_ARCH_REGS];
        init[2] = 0x7FFF_0000; // sp
        RenameState::new(256, 256, &init)
    }

    #[test]
    fn initial_mappings_hold_initial_values() {
        let s = fresh();
        let sp = s.map(Reg::SP);
        assert!(s.is_ready(sp));
        assert_eq!(s.value(sp), 0x7FFF_0000);
        assert_eq!(s.free_int_count(), 256 - 32);
        assert_eq!(s.free_fp_count(), 256 - 16);
    }

    #[test]
    fn rename_allocates_and_remaps() {
        let mut s = fresh();
        let old = s.map(Reg::x(5));
        let (fresh_p, prev) = s.rename_dest(Reg::x(5)).unwrap();
        assert_eq!(prev, old);
        assert_ne!(fresh_p, old);
        assert_eq!(s.map(Reg::x(5)), fresh_p);
        assert!(!s.is_ready(fresh_p), "fresh destination starts not-ready");
        s.write(fresh_p, 42);
        assert!(s.is_ready(fresh_p));
        assert_eq!(s.value(fresh_p), 42);
    }

    #[test]
    fn fp_and_int_pools_are_separate() {
        let mut s = fresh();
        let (pi, _) = s.rename_dest(Reg::x(3)).unwrap();
        let (pf, _) = s.rename_dest(Reg::f(3)).unwrap();
        assert!(!s.is_fp_phys(pi));
        assert!(s.is_fp_phys(pf));
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let init = [0u64; NUM_ARCH_REGS];
        let mut s = RenameState::new(33, 16, &init);
        assert!(s.rename_dest(Reg::x(1)).is_some()); // uses the last free one
        assert!(s.rename_dest(Reg::x(2)).is_none());
    }

    #[test]
    fn checkpoint_restore_recovers_mappings() {
        let mut s = fresh();
        let cp = s.checkpoint();
        let (p1, _) = s.rename_dest(Reg::x(7)).unwrap();
        let (_p2, _) = s.rename_dest(Reg::x(8)).unwrap();
        assert_ne!(s.map(Reg::x(7)), cp[7]);
        s.restore(&cp);
        assert_eq!(s.map(Reg::x(7)), cp[7]);
        assert_eq!(s.map(Reg::x(8)), cp[8]);
        // Squashed destinations go back to the pool.
        let before = s.free_int_count();
        s.free(p1);
        assert_eq!(s.free_int_count(), before + 1);
    }

    #[test]
    fn poke_arch_updates_through_the_rat() {
        let mut s = fresh();
        s.poke_arch(Reg::x(9), 77);
        assert_eq!(s.value(s.map(Reg::x(9))), 77);
    }
}

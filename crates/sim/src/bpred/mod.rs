//! The front-end prediction unit: TAGE for conditional branches, ITTAGE
//! for indirect targets, a return-address stack for calls/returns.
//!
//! The crucial SeMPE property lives one level up: **sJMP instructions
//! never consult or update any of these structures** (paper §IV-E), which
//! is what closes the branch-predictor side channel. The pipeline enforces
//! that by simply not calling into this module for secure branches; the
//! security tests verify it by asserting that predictor update traces are
//! secret-independent.

pub mod ittage;
pub mod ras;
pub mod tage;

use sempe_isa::Addr;

use crate::config::BpredConfig;
pub use ittage::Ittage;
pub use ras::{RasCheckpoints, RasHandle, ReturnStack};
pub use tage::{push_history, Tage, TagePrediction};

/// Counters for predictor behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BpredStats {
    /// Conditional-branch predictions made.
    pub cond_predictions: u64,
    /// Conditional-branch mispredictions.
    pub cond_mispredicts: u64,
    /// Indirect-target predictions made (including returns).
    pub indirect_predictions: u64,
    /// Indirect-target mispredictions.
    pub indirect_mispredicts: u64,
}

impl BpredStats {
    /// Conditional misprediction rate in [0, 1].
    #[must_use]
    pub fn cond_mispredict_rate(&self) -> f64 {
        if self.cond_predictions == 0 {
            0.0
        } else {
            self.cond_mispredicts as f64 / self.cond_predictions as f64
        }
    }
}

/// The bundled prediction unit with speculative-history management.
#[derive(Debug)]
pub struct BranchPredictor {
    tage: Tage,
    ittage: Ittage,
    ras: ReturnStack,
    ghr: u64,
    stats: BpredStats,
}

clone_in_place!(BranchPredictor { tage, ittage, ras, ghr, stats });

impl BranchPredictor {
    /// Build the unit from a configuration.
    #[must_use]
    pub fn new(cfg: BpredConfig) -> Self {
        BranchPredictor {
            tage: Tage::new(cfg),
            ittage: Ittage::new(cfg),
            ras: ReturnStack::new(cfg.ras_depth),
            ghr: 0,
            stats: BpredStats::default(),
        }
    }

    /// Become `BranchPredictor::new(cfg)`, refilling the tables in place.
    pub fn reset(&mut self, cfg: BpredConfig) {
        let BranchPredictor { tage, ittage, ras, ghr, stats } = self;
        tage.reset(cfg);
        ittage.reset(cfg);
        ras.reset(cfg.ras_depth);
        *ghr = 0;
        *stats = BpredStats::default();
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> BpredStats {
        self.stats
    }

    /// The current (speculative) global history.
    #[must_use]
    pub fn ghr(&self) -> u64 {
        self.ghr
    }

    /// Predict a conditional branch at `pc`; shifts the speculative
    /// outcome into the history. Returns `(taken, ghr_before)` — the
    /// caller stores `ghr_before` for recovery and commit-time training.
    pub fn predict_cond(&mut self, pc: Addr) -> (bool, u64) {
        let ghr_before = self.ghr;
        let p = self.tage.predict(pc, ghr_before);
        self.ghr = push_history(self.ghr, p.taken);
        self.stats.cond_predictions += 1;
        (p.taken, ghr_before)
    }

    /// Predict an indirect-jump target (non-return). Returns
    /// `(target, ghr_before)`; target 0 means "unknown".
    pub fn predict_indirect(&mut self, pc: Addr) -> (Addr, u64) {
        self.stats.indirect_predictions += 1;
        (self.ittage.predict(pc, self.ghr), self.ghr)
    }

    /// A call at fetch: push its fall-through onto the RAS.
    pub fn on_call(&mut self, return_addr: Addr) {
        self.ras.push(return_addr);
    }

    /// A return at fetch: pop the predicted target.
    pub fn predict_return(&mut self) -> Option<Addr> {
        self.stats.indirect_predictions += 1;
        self.ras.pop()
    }

    /// The return-address stack.
    #[must_use]
    pub fn ras(&self) -> &ReturnStack {
        &self.ras
    }

    /// Squash recovery for a mispredicted conditional branch: rewind the
    /// history to `ghr_before`, insert the actual outcome, restore the RAS.
    pub fn recover_cond(&mut self, ghr_before: u64, actual_taken: bool, ras: &[Addr]) {
        self.rewind_cond(ghr_before, actual_taken);
        self.ras.restore(ras);
    }

    /// [`BranchPredictor::recover_cond`] for a branch whose RAS snapshot
    /// is the current stack (nothing was fetched past it): the history
    /// half only.
    pub fn rewind_cond(&mut self, ghr_before: u64, actual_taken: bool) {
        self.ghr = push_history(ghr_before, actual_taken);
        self.stats.cond_mispredicts += 1;
    }

    /// Squash recovery for a mispredicted indirect target.
    pub fn recover_indirect(&mut self, ghr_before: u64, ras: &[Addr]) {
        self.rewind_indirect(ghr_before);
        self.ras.restore(ras);
    }

    /// [`BranchPredictor::recover_indirect`] without the RAS restore (see
    /// [`BranchPredictor::rewind_cond`]).
    pub fn rewind_indirect(&mut self, ghr_before: u64) {
        self.ghr = ghr_before;
        self.stats.indirect_mispredicts += 1;
    }

    /// A committed conditional branch replayed by the fast-forward tier:
    /// the pipeline's predict, recover-on-mismatch (history half) and
    /// train sequence for it, with one TAGE table lookup for both the
    /// prediction and the training (nothing changes the tables in
    /// between).
    pub fn warm_cond(&mut self, pc: Addr, taken: bool) {
        let ghr_before = self.ghr;
        let lookup = self.tage.lookup(pc, ghr_before);
        let pred = self.tage.predict_at(pc, &lookup).taken;
        self.ghr = push_history(ghr_before, pred);
        self.stats.cond_predictions += 1;
        if pred != taken {
            self.rewind_cond(ghr_before, taken);
        }
        self.tage.update_at(pc, &lookup, taken);
    }

    /// Commit-time training of a conditional branch.
    pub fn commit_cond(&mut self, pc: Addr, ghr_before: u64, taken: bool) {
        self.tage.update(pc, ghr_before, taken);
    }

    /// Commit-time training of an indirect jump.
    pub fn commit_indirect(&mut self, pc: Addr, ghr_before: u64, target: Addr) {
        self.ittage.update(pc, ghr_before, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculative_history_advances_and_recovers() {
        let mut bp = BranchPredictor::new(BpredConfig::paper());
        let (t1, g1) = bp.predict_cond(0x100);
        assert_eq!(g1, 0);
        assert_eq!(bp.ghr(), push_history(0, t1));
        let ras = bp.ras().entries().to_vec();
        // Mispredict: rewind and insert the actual outcome.
        bp.recover_cond(g1, !t1, &ras);
        assert_eq!(bp.ghr(), push_history(0, !t1));
        assert_eq!(bp.stats().cond_mispredicts, 1);
    }

    #[test]
    fn return_prediction_uses_the_ras() {
        let mut bp = BranchPredictor::new(BpredConfig::paper());
        bp.on_call(0x1234);
        assert_eq!(bp.predict_return(), Some(0x1234));
        assert_eq!(bp.predict_return(), None);
    }

    #[test]
    fn training_improves_a_biased_branch() {
        let mut bp = BranchPredictor::new(BpredConfig::paper());
        let mut wrong = 0;
        for _ in 0..64 {
            let (pred, g) = bp.predict_cond(0x500);
            if !pred {
                wrong += 1;
                let ras = bp.ras().entries().to_vec();
                bp.recover_cond(g, true, &ras);
            }
            bp.commit_cond(0x500, g, true);
        }
        assert!(wrong < 8, "always-taken branch should train fast, {wrong} wrong");
    }

    #[test]
    fn mispredict_rate_statistic() {
        let mut s = BpredStats::default();
        assert_eq!(s.cond_mispredict_rate(), 0.0);
        s.cond_predictions = 10;
        s.cond_mispredicts = 3;
        assert!((s.cond_mispredict_rate() - 0.3).abs() < 1e-12);
    }
}

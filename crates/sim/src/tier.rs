//! Tiered execution: the functional fast-forward engine (tier two of
//! the perf architecture — see `docs/performance.md`).
//!
//! Under [`crate::config::Stepping::Tiered`] the simulator executes
//! instructions outside the region of interest *functionally* — straight
//! through the ISA's instruction-semantics kernel
//! ([`sempe_isa::semantics::step`]), no pipeline, no cycles — while
//! *warming* every timed structure along the committed path:
//! instruction- and data-cache fills, prefetcher training, and
//! TAGE/ITTAGE/RAS updates. At an ROI boundary the machine is already
//! architecturally quiesced (fast-forward has no in-flight state), so
//! the detailed pipeline takes over in place and simulates only the
//! cycles that the security claims are about.
//!
//! ## The warmup model
//!
//! The fast-forward loop warms the instruction cache itself; everything
//! else is warmed by `FullWarmup`, the kernel's observer:
//!
//! * **Instruction cache** — one [`MemHierarchy::fetch_access`] per
//!   committed-path line transition, exactly the dedupe rule the fetch
//!   stage uses (`last_fetch_line`), continuing the pipeline's own line
//!   tracker across the handoff.
//! * **Data cache + prefetchers** — one [`MemHierarchy::data_access`]
//!   per load that the store-forward window does not cover and per
//!   store at commit, matching where the pipeline touches the DL1.
//! * **Branch predictors** — the exact call sequence the pipeline
//!   issues for a committed branch: `predict` (speculative-history
//!   push), recovery on an actual-outcome mismatch (history rewind; the
//!   RAS snapshot a squash would restore is the current stack, since
//!   nothing is fetched past a committed branch), `update` at commit.
//!   `Tage::predict` and
//!   `Ittage::predict` are `&self` (pure), squash recovery restores the
//!   *full* RAS snapshot, and table training happens only at commit —
//!   so replaying the committed path leaves the GHR, RAS, and
//!   TAGE/ITTAGE tables **bit-for-bit identical** to a full detailed
//!   run at every ROI boundary. Only the [`crate::bpred::BpredStats`]
//!   *counters* differ (wrong-path re-fetch predictions are not
//!   replayed); those are diagnostics, not timed state.
//!
//! ## Exactness budget
//!
//! Bit-exact at a region boundary: architectural registers and memory,
//! predictor tables/GHR/RAS, and the fetch-line tracker. Approximate:
//! cache/prefetcher *timing-dependent* contents can deviate where the
//! detailed machine's wrong-path speculation or out-of-order load
//! issue would have touched lines the committed path does not (or in a
//! different order); the front end of a full run can have *run ahead*
//! through the region's own code during a stall-heavy pre-region phase
//! (fast-forward hands off with fetch parked at the boundary, so those
//! instruction misses land inside the ROI instead — the divergence is
//! conservative, never under-counting ROI cycles); and the
//! store-forward window is a timeless stand-in for the store queue's
//! occupancy. `docs/performance.md` quantifies the measured budget; the
//! golden workloads all sit at zero, and
//! `crates/bench/tests/tiered.rs` pins both the zero cases and the
//! bounded cold-entry case.

use std::time::Instant;

use sempe_isa::mem::Memory;
use sempe_isa::opcode::Opcode;
use sempe_isa::program::DecodedProgram;
use sempe_isa::reg::NUM_ARCH_REGS;
use sempe_isa::semantics::{self, Observer};
use sempe_isa::{Addr, ExecError};

use crate::bpred::BranchPredictor;
use crate::cache::MemHierarchy;
use crate::config::Roi;
use crate::lsq::{overlap, Overlap};
use crate::pipeline::{DEADLINE_QUANTUM, FETCH_LINE_BYTES};

/// The fast-forward tier's kernel observer: warms the data cache,
/// prefetchers and branch predictors along the committed path, replaying
/// the exact call sequence the detailed pipeline issues.
///
/// Host-time attribution: timing every warm call would dominate the
/// fast-forward loop, so `warm_ns` is a sampled estimate — every
/// [`FullWarmup::SAMPLE`]-th call is timed and scaled by the sampling
/// factor. Deterministic, cheap, and honest enough for a host-side
/// ledger (it never feeds simulated state).
#[derive(Debug)]
pub(crate) struct FullWarmup<'a> {
    hier: &'a mut MemHierarchy,
    bp: &'a mut BranchPredictor,
    stores: StoreWindow,
    calls: u64,
    warm_ns: u64,
}

impl<'a> FullWarmup<'a> {
    /// Sampling factor for the `warm_ns` estimate.
    const SAMPLE: u64 = 64;

    /// Warm `hier` and `bp`; `store_window` is the store-queue capacity
    /// (the forwarding window).
    pub(crate) fn new(
        hier: &'a mut MemHierarchy,
        bp: &'a mut BranchPredictor,
        store_window: usize,
    ) -> Self {
        FullWarmup { hier, bp, stores: StoreWindow::new(store_window), calls: 0, warm_ns: 0 }
    }

    /// Sampled estimate of host nanoseconds spent warming structures.
    pub(crate) fn warm_ns(&self) -> u64 {
        self.warm_ns
    }

    /// The committed path crossed into the instruction-cache line
    /// holding `pc`.
    fn fetch_line(&mut self, pc: Addr) {
        self.sampled(|w| {
            w.hier.fetch_access(pc);
        });
    }

    fn sampled(&mut self, f: impl FnOnce(&mut Self)) {
        self.calls += 1;
        if !self.calls.is_multiple_of(Self::SAMPLE) {
            return f(self);
        }
        let t = Instant::now();
        f(self);
        self.warm_ns += Self::SAMPLE
            * u64::try_from(t.elapsed().as_nanos().min(u128::from(u64::MAX))).unwrap_or(0);
    }
}

impl Observer for FullWarmup<'_> {
    /// A load the store-forward window covers is satisfied from the store
    /// queue in the pipeline and never touches the DL1.
    fn on_load(&mut self, pc: Addr, addr: Addr, width: u8) {
        if !self.stores.covers(addr, width) {
            self.sampled(|w| {
                w.hier.data_access(pc, addr, false);
            });
        }
    }

    fn on_store(&mut self, pc: Addr, addr: Addr, width: u8) {
        self.stores.push(addr, width);
        self.sampled(|w| {
            w.hier.data_access(pc, addr, true);
        });
    }

    fn on_cond_branch(&mut self, pc: Addr, taken: bool) {
        self.sampled(|w| w.bp.warm_cond(pc, taken));
    }

    fn on_call(&mut self, return_addr: Addr) {
        self.sampled(|w| {
            w.bp.on_call(return_addr);
        });
    }

    fn on_return(&mut self, target: Addr) {
        self.sampled(|w| {
            let ghr_before = w.bp.ghr();
            let pred = w.bp.predict_return();
            if pred != Some(target) {
                w.bp.rewind_indirect(ghr_before);
            }
        });
    }

    fn on_indirect(&mut self, pc: Addr, fallthrough: Addr, target: Addr) {
        self.sampled(|w| {
            let ghr_before = w.bp.ghr();
            let (t, _) = w.bp.predict_indirect(pc);
            let predicted = if t == 0 { fallthrough } else { t };
            if predicted != target {
                w.bp.rewind_indirect(ghr_before);
            }
            w.bp.commit_indirect(pc, ghr_before, target);
        });
    }
}

/// May the fast-forward engine execute the *next* instruction (commit
/// number `committed + 1`) under this ROI policy? Secure-region
/// boundaries are handled separately (fast-forward always stops at a
/// secure-marked instruction); this predicate covers only the explicit
/// measurement window.
#[must_use]
pub fn ff_window_allows(roi: Roi, committed: u64) -> bool {
    match roi {
        Roi::Regions => true,
        Roi::Window { skip, insts } => {
            insts == 0 || committed < skip || committed >= skip.saturating_add(insts)
        }
    }
}

/// A timeless stand-in for the store queue, used only to decide whether
/// a load would have been satisfied by store-queue forwarding (in which
/// case the pipeline never touches the DL1 for it). Applies
/// [`crate::lsq::Lsq::check_load`]'s forwarding rule ([`overlap`]; youngest
/// overlapping store wins) over a sliding window of the most recent
/// `cap` stores.
#[derive(Debug)]
struct StoreWindow {
    ring: Vec<(Addr, u8)>,
    next: usize,
    cap: usize,
}

impl StoreWindow {
    fn new(cap: usize) -> Self {
        StoreWindow { ring: Vec::with_capacity(cap), next: 0, cap: cap.max(1) }
    }

    fn push(&mut self, addr: Addr, width: u8) {
        if self.ring.len() < self.cap {
            self.ring.push((addr, width));
        } else {
            self.ring[self.next] = (addr, width);
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
    }

    /// Youngest-first scan, same verdict as the LSQ: an exact-base
    /// covering store forwards; a partially overlapping one does not
    /// (the pipeline's load waits and then reads the DL1); older stores
    /// are shadowed by the youngest overlap. The ring's youngest entries
    /// are `ring[..next]`, then (once it has wrapped) `ring[next..]`.
    fn covers(&self, addr: Addr, width: u8) -> bool {
        let (young, old) = self.ring.split_at(self.next.min(self.ring.len()));
        for &(sa, sw) in young.iter().rev().chain(old.iter().rev()) {
            match overlap(sa, sw, addr, width) {
                Overlap::Disjoint => {}
                verdict => return verdict == Overlap::Forward,
            }
        }
        false
    }
}

/// Why a fast-forward segment stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FfStop {
    /// Hand off to the detailed pipeline at the current PC: a
    /// secure-marked instruction, `HALT`, an undecodable PC (wrong-path
    /// semantics belong to the pipeline), or a measurement-window
    /// boundary.
    Boundary,
    /// An architectural fault (surfaces exactly as detailed commit
    /// would).
    Fault(ExecError),
    /// The committed-instruction budget derived from `max_cycles` ran
    /// out.
    Budget,
    /// The host wall-clock deadline expired.
    Deadline,
}

/// A borrow-split view of the simulator pieces the fast-forward engine
/// touches. Constructed by `Simulator::fast_forward_segment`; `pc`,
/// `committed`, and `executed` are carried back at the handoff.
pub(crate) struct FastForward<'a> {
    pub prog: &'a DecodedProgram,
    pub mem: &'a mut Memory,
    pub regs: &'a mut [u64; NUM_ARCH_REGS],
    pub last_fetch_line: &'a mut Option<u64>,
    /// The kernel observer warming the timed structures.
    pub warm: FullWarmup<'a>,
    /// Current fetch PC (in/out).
    pub pc: Addr,
    /// Global committed-instruction counter (in/out).
    pub committed: u64,
    /// Instructions executed by this segment (out).
    pub executed: u64,
}

impl FastForward<'_> {
    /// Execute functionally until an ROI boundary, fault, budget, or
    /// deadline; `budget` bounds the *global* committed count.
    pub(crate) fn run(&mut self, roi: Roi, budget: u64, deadline: Option<Instant>) -> FfStop {
        let mut quantum: u32 = 0;
        loop {
            if !ff_window_allows(roi, self.committed) {
                return FfStop::Boundary;
            }
            let Some((inst, len)) = self.prog.try_fetch(self.pc) else {
                return FfStop::Boundary;
            };
            if inst.secure || inst.op == Opcode::Halt {
                return FfStop::Boundary;
            }
            if self.committed >= budget {
                return FfStop::Budget;
            }
            if let Some(d) = deadline {
                quantum += 1;
                if quantum >= DEADLINE_QUANTUM {
                    quantum = 0;
                    if Instant::now() >= d {
                        return FfStop::Deadline;
                    }
                }
            }
            let line = self.pc / FETCH_LINE_BYTES;
            if *self.last_fetch_line != Some(line) {
                self.warm.fetch_line(self.pc);
                *self.last_fetch_line = Some(line);
            }
            match semantics::step(inst, len, self.pc, self.regs, self.mem, &mut self.warm) {
                Ok(next) => self.pc = next,
                Err(fault) => return FfStop::Fault(fault),
            }
            self.committed += 1;
            self.executed += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_policy_gates_only_the_window() {
        let w = Roi::Window { skip: 10, insts: 5 };
        assert!(ff_window_allows(w, 0));
        assert!(ff_window_allows(w, 9));
        assert!(!ff_window_allows(w, 10), "commit 11 opens the window");
        assert!(!ff_window_allows(w, 14), "commit 15 closes the window");
        assert!(ff_window_allows(w, 15));
        assert!(ff_window_allows(Roi::Regions, 12));
        assert!(
            ff_window_allows(Roi::Window { skip: 3, insts: 0 }, 3),
            "empty window is no window"
        );
    }

    #[test]
    fn store_window_forwards_like_the_lsq() {
        let mut s = StoreWindow::new(4);
        assert!(!s.covers(0x100, 8), "empty window forwards nothing");
        s.push(0x100, 8);
        assert!(s.covers(0x100, 8), "exact match forwards");
        assert!(s.covers(0x100, 4), "narrower load under a wider store forwards");
        assert!(!s.covers(0x104, 4), "offset overlap does not forward");
        assert!(!s.covers(0x100, 16), "wider load than store does not forward");
        // A younger partial overlap shadows an older exact cover.
        s.push(0x104, 1);
        assert!(!s.covers(0x100, 8), "youngest overlapping store wins");
        // Capacity eviction: pushing past cap drops the oldest.
        let mut s = StoreWindow::new(2);
        s.push(0x10, 8);
        s.push(0x20, 8);
        s.push(0x30, 8);
        assert!(!s.covers(0x10, 8), "evicted store no longer forwards");
        assert!(s.covers(0x20, 8));
        assert!(s.covers(0x30, 8));
        // A store straddling the top of memory overlaps the bytes it
        // wraps onto.
        s.push(u64::MAX - 3, 8);
        assert!(s.covers(u64::MAX - 3, 8));
        assert!(!s.covers(0, 4), "the wrapped-onto bytes partially overlap");
    }
}

//! [`SempeUnit`] — the complete SeMPE mechanism as one state machine,
//! combining the jump-back table, the scratchpad, and the ArchRS
//! snapshots. A pipeline (the cycle-level simulator, or the functional
//! interpreter if it wanted to) drives it with five events:
//!
//! * [`SempeUnit::can_issue_sjmp`] / [`SempeUnit::on_sjmp_issue`] —
//!   issue-side gating and jbTable allocation;
//! * [`SempeUnit::on_sjmp_commit`] — the secure branch retires: record
//!   target/outcome, drain, snapshot the architectural registers;
//! * [`SempeUnit::note_commit_write`] — every architectural register
//!   write committed inside a secure region updates the modified vectors;
//! * [`SempeUnit::on_eosjmp_commit`] — path boundary: jump back to the
//!   taken path (first visit) or merge-and-exit (second visit);
//! * [`SempeUnit::on_sjmp_squash`] — misprediction recovery removes
//!   jbTable entries of squashed sJMPs, newest first.
//!
//! Every event returns the scratchpad **cycle cost** so the caller can
//! model the stall; whether a pipeline *drain* accompanies the event is
//! reported too (Figure 6 shows three drains per secure region).

use sempe_isa::reg::{Reg, NUM_ARCH_REGS};
use sempe_isa::Addr;

use crate::error::SempeFault;
use crate::jbtable::{EosAction, JumpBackTable};
use crate::snapshot::{ArchSnapshot, RegState};
use crate::spm::{Spm, SpmConfig};

/// Configuration of the SeMPE hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SempeConfig {
    /// jbTable entries == deepest supported secure nesting (paper: 30).
    pub jbtable_entries: usize,
    /// Scratchpad sizing and throughput.
    pub spm: SpmConfig,
    /// Model the three pipeline drains of Figure 6. Disabling them is an
    /// **insecure** ablation used to quantify their cost.
    pub drains_enabled: bool,
    /// Perform constant-time merges (read the scratchpad for all modified
    /// registers regardless of outcome). Disabling is an **insecure**
    /// ablation: merge traffic then leaks the branch outcome.
    pub constant_time_merge: bool,
}

impl SempeConfig {
    /// The paper's evaluated configuration.
    #[must_use]
    pub fn paper() -> Self {
        let spm = SpmConfig::paper();
        SempeConfig {
            // "Up to 30 snapshots supported" (Table II).
            jbtable_entries: 30,
            spm: SpmConfig { size_bytes: 30 * spm.snapshot_bytes, ..spm },
            drains_enabled: true,
            constant_time_merge: true,
        }
    }
}

impl Default for SempeConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The effect of a SempeUnit event on the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitEffect {
    /// Redirect fetch to this address (eosJMP first visit).
    pub redirect: Option<Addr>,
    /// Scratchpad transfer cycles the pipeline must stall for.
    pub spm_cycles: u64,
    /// Whether a pipeline drain precedes/accompanies the event.
    pub drain: bool,
}

/// The SeMPE mechanism state machine. See the module docs for the event
/// protocol.
#[derive(Debug)]
pub struct SempeUnit {
    config: SempeConfig,
    jbtable: JumpBackTable,
    spm: Spm,
    snapshots: Vec<ArchSnapshot>,
    stats: SempeStats,
    /// Reusable buffer for restore/merge write lists, so region
    /// boundaries do not allocate on the simulator's hot path.
    writes_scratch: Vec<(Reg, u64)>,
}

/// Counters the unit accumulates across a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SempeStats {
    /// sJMPs committed.
    pub sjmp_commits: u64,
    /// eosJMP commits (two per completed region).
    pub eosjmp_commits: u64,
    /// Completed secure regions.
    pub regions_completed: u64,
    /// Total scratchpad stall cycles charged.
    pub spm_stall_cycles: u64,
    /// Pipeline drains requested.
    pub drains: u64,
    /// Deepest nesting observed.
    pub max_nesting: usize,
    /// jbTable entries removed by squash recovery.
    pub squashed_sjmps: u64,
}

impl Clone for SempeUnit {
    fn clone(&self) -> Self {
        SempeUnit {
            config: self.config,
            jbtable: self.jbtable.clone(),
            spm: self.spm.clone(),
            snapshots: self.snapshots.clone(),
            stats: self.stats,
            writes_scratch: self.writes_scratch.clone(),
        }
    }

    /// Field by field, so the snapshot and scratch buffers keep their
    /// allocations across a simulator restore.
    fn clone_from(&mut self, source: &Self) {
        let SempeUnit { config, jbtable, spm, snapshots, stats, writes_scratch } = self;
        *config = source.config;
        jbtable.clone_from(&source.jbtable);
        spm.clone_from(&source.spm);
        snapshots.clone_from(&source.snapshots);
        *stats = source.stats;
        writes_scratch.clone_from(&source.writes_scratch);
    }
}

impl SempeUnit {
    /// Build a unit from a configuration.
    #[must_use]
    pub fn new(config: SempeConfig) -> Self {
        SempeUnit {
            jbtable: JumpBackTable::new(config.jbtable_entries),
            spm: Spm::new(config.spm),
            snapshots: Vec::new(),
            config,
            stats: SempeStats::default(),
            writes_scratch: Vec::new(),
        }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &SempeConfig {
        &self.config
    }

    /// Accumulated counters.
    #[must_use]
    pub fn stats(&self) -> SempeStats {
        self.stats
    }

    /// Current secure nesting depth (committed regions only).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.snapshots.len()
    }

    /// Is at least one secure region architecturally active?
    #[must_use]
    pub fn in_secure_region(&self) -> bool {
        !self.snapshots.is_empty()
    }

    /// Read-only view of the jump-back table.
    #[must_use]
    pub fn jbtable(&self) -> &JumpBackTable {
        &self.jbtable
    }

    /// Issue-side gating: may an sJMP issue this cycle?
    #[must_use]
    pub fn can_issue_sjmp(&self) -> bool {
        self.jbtable.can_issue_sjmp()
    }

    /// The earliest future cycle at which the unit could change pipeline
    /// state on its own — `None`, always, by contract: the unit is
    /// event-driven. Its only timed effects are the scratchpad transfer
    /// stalls ([`UnitEffect::spm_cycles`]) returned synchronously from
    /// the commit events and charged into the caller's own stall timers;
    /// between events the jbTable, snapshot stack and SPM hold no
    /// pending work. The cycle-level simulator's next-event fast-forward
    /// relies on this (a future autonomous timer — say, a background SPM
    /// drain — must be reported here, or skipping would jump over it).
    #[must_use]
    pub fn next_event_cycle(&self) -> Option<u64> {
        None
    }

    /// An sJMP issued: allocate its jbTable entry.
    ///
    /// # Errors
    ///
    /// [`SempeFault::NestingOverflow`] when the table is full (callers
    /// honouring [`SempeUnit::can_issue_sjmp`] never see this).
    pub fn on_sjmp_issue(&mut self) -> Result<usize, SempeFault> {
        self.jbtable.alloc()
    }

    /// The sJMP committed: the target address and outcome are architectural
    /// now. Snapshot the registers and charge the initial SPM save.
    ///
    /// # Errors
    ///
    /// Propagates jbTable and scratchpad faults.
    pub fn on_sjmp_commit(
        &mut self,
        target: Addr,
        taken: bool,
        regs: &RegState,
    ) -> Result<UnitEffect, SempeFault> {
        self.jbtable.commit_sjmp(target, taken)?;
        let spm_cycles = self.spm.save_initial()?;
        self.snapshots.push(ArchSnapshot::capture_initial(regs));
        self.stats.sjmp_commits += 1;
        self.stats.max_nesting = self.stats.max_nesting.max(self.snapshots.len());
        self.stats.spm_stall_cycles += spm_cycles;
        let drain = self.config.drains_enabled;
        if drain {
            self.stats.drains += 1;
        }
        Ok(UnitEffect { redirect: None, spm_cycles, drain })
    }

    /// A committed instruction wrote architectural register `reg` while
    /// inside one or more secure regions: update every level's modified
    /// vector for its currently executing path.
    pub fn note_commit_write(&mut self, reg: Reg) {
        if reg.is_zero() {
            return;
        }
        for snap in &mut self.snapshots {
            snap.note_write(reg);
        }
    }

    /// An eosJMP committed. First visit per region: restore the initial
    /// register state into `regs` and redirect to the taken path. Second
    /// visit: merge per the outcome and fall through.
    ///
    /// # Errors
    ///
    /// Propagates jbTable faults ([`SempeFault::EosWithoutRegion`] etc.).
    pub fn on_eosjmp_commit(&mut self, regs: &mut RegState) -> Result<UnitEffect, SempeFault> {
        let action = self.jbtable.commit_eosjmp()?;
        self.stats.eosjmp_commits += 1;
        let drain = self.config.drains_enabled;
        if drain {
            self.stats.drains += 1;
        }
        let mut writes = core::mem::take(&mut self.writes_scratch);
        match action {
            EosAction::JumpBack { target } => {
                let snap = self.snapshots.last_mut().ok_or(SempeFault::EosWithoutRegion)?;
                let modified = snap.end_nt_path_into(regs, &mut writes);
                for &(r, v) in &writes {
                    regs[r.index()] = v;
                }
                self.writes_scratch = writes;
                let spm_cycles = self.spm.save_nt_and_restore(modified, NUM_ARCH_REGS);
                self.stats.spm_stall_cycles += spm_cycles;
                Ok(UnitEffect { redirect: Some(target), spm_cycles, drain })
            }
            EosAction::Exit { taken } => {
                let snap = self.snapshots.pop().ok_or(SempeFault::EosWithoutRegion)?;
                snap.merge_writes_into(taken, regs, &mut writes);
                let merged = snap.merged_set();
                for (r, v) in &writes {
                    regs[r.index()] = *v;
                }
                // Outer levels observe this region's net modifications.
                for outer in &mut self.snapshots {
                    for r in merged.iter() {
                        outer.note_write(r);
                    }
                }
                let charged_regs = if self.config.constant_time_merge || !taken {
                    merged.count()
                } else {
                    // Insecure ablation: a taken outcome skips the reads.
                    0
                };
                let spm_cycles = self.spm.restore_exit(charged_regs, NUM_ARCH_REGS);
                self.stats.spm_stall_cycles += spm_cycles;
                self.stats.regions_completed += 1;
                self.writes_scratch = writes;
                Ok(UnitEffect { redirect: None, spm_cycles, drain })
            }
        }
    }

    /// Squash recovery: one issued-but-uncommitted sJMP was flushed;
    /// remove its jbTable entry (call newest-first, once per squashed
    /// sJMP).
    pub fn on_sjmp_squash(&mut self) {
        // Only issued-not-committed entries can be squashed; they have no
        // snapshot yet, so the snapshot stack is untouched.
        debug_assert!(
            self.jbtable.depth() > self.snapshots.len(),
            "attempted to squash a committed secure branch"
        );
        self.jbtable.squash_newest();
        self.stats.squashed_sjmps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regs_with(pairs: &[(usize, u64)]) -> RegState {
        let mut r = [0u64; NUM_ARCH_REGS];
        for (i, v) in pairs {
            r[*i] = *v;
        }
        r
    }

    #[test]
    fn single_region_lifecycle_produces_three_drains() {
        let mut unit = SempeUnit::new(SempeConfig::paper());
        let mut regs = regs_with(&[(4, 10)]);

        unit.on_sjmp_issue().unwrap();
        let e1 = unit.on_sjmp_commit(0x9000, false, &regs).unwrap();
        assert!(e1.drain);
        assert!(e1.spm_cycles > 0, "full initial save must cost cycles");

        // NT path writes x4.
        regs[4] = 77;
        unit.note_commit_write(Reg::x(4));

        let e2 = unit.on_eosjmp_commit(&mut regs).unwrap();
        assert_eq!(e2.redirect, Some(0x9000));
        assert_eq!(regs[4], 10, "initial value restored for the taken path");

        // T path writes x5.
        regs[5] = 88;
        unit.note_commit_write(Reg::x(5));

        let e3 = unit.on_eosjmp_commit(&mut regs).unwrap();
        assert_eq!(e3.redirect, None);
        // Outcome NotTaken: x4 takes its NT value, x5 restored to initial.
        assert_eq!(regs[4], 77);
        assert_eq!(regs[5], 0);

        let s = unit.stats();
        assert_eq!(s.drains, 3, "Figure 6: three drains per secure region");
        assert_eq!(s.regions_completed, 1);
        assert!(!unit.in_secure_region());
    }

    #[test]
    fn taken_outcome_keeps_t_path_values() {
        let mut unit = SempeUnit::new(SempeConfig::paper());
        let mut regs = regs_with(&[(4, 10)]);
        unit.on_sjmp_issue().unwrap();
        unit.on_sjmp_commit(0x9000, true, &regs).unwrap();
        regs[4] = 77; // NT path (wrong path)
        unit.note_commit_write(Reg::x(4));
        unit.on_eosjmp_commit(&mut regs).unwrap();
        regs[4] = 99; // T path (correct path)
        unit.note_commit_write(Reg::x(4));
        unit.on_eosjmp_commit(&mut regs).unwrap();
        assert_eq!(regs[4], 99);
    }

    #[test]
    fn spm_charge_is_outcome_independent_when_constant_time() {
        let run = |taken: bool| -> u64 {
            let mut unit = SempeUnit::new(SempeConfig::paper());
            let mut regs = regs_with(&[]);
            unit.on_sjmp_issue().unwrap();
            unit.on_sjmp_commit(0x100, taken, &regs).unwrap();
            regs[3] = 1;
            unit.note_commit_write(Reg::x(3));
            unit.on_eosjmp_commit(&mut regs).unwrap();
            regs[4] = 2;
            unit.note_commit_write(Reg::x(4));
            unit.on_eosjmp_commit(&mut regs).unwrap();
            unit.stats().spm_stall_cycles
        };
        assert_eq!(run(true), run(false), "SPM traffic must not leak the outcome");
    }

    #[test]
    fn insecure_merge_ablation_leaks_timing() {
        let run = |taken: bool| -> u64 {
            let mut cfg = SempeConfig::paper();
            cfg.constant_time_merge = false;
            let mut unit = SempeUnit::new(cfg);
            let mut regs = regs_with(&[]);
            unit.on_sjmp_issue().unwrap();
            unit.on_sjmp_commit(0x100, taken, &regs).unwrap();
            regs[3] = 1;
            unit.note_commit_write(Reg::x(3));
            unit.on_eosjmp_commit(&mut regs).unwrap();
            unit.on_eosjmp_commit(&mut regs).unwrap();
            unit.stats().spm_stall_cycles
        };
        assert_ne!(run(true), run(false), "the ablation is supposed to leak");
    }

    #[test]
    fn nested_regions_propagate_modifications_outward() {
        let mut unit = SempeUnit::new(SempeConfig::paper());
        let mut regs = regs_with(&[(7, 70)]);
        // Outer region, outcome NotTaken.
        unit.on_sjmp_issue().unwrap();
        unit.on_sjmp_commit(0x100, false, &regs).unwrap();
        // Inner region entirely within the outer NT path; outcome Taken.
        unit.on_sjmp_issue().unwrap();
        unit.on_sjmp_commit(0x200, true, &regs).unwrap();
        regs[7] = 71; // inner NT writes x7
        unit.note_commit_write(Reg::x(7));
        unit.on_eosjmp_commit(&mut regs).unwrap(); // jump back (restores 70)
        assert_eq!(regs[7], 70);
        regs[7] = 72; // inner T writes x7
        unit.note_commit_write(Reg::x(7));
        unit.on_eosjmp_commit(&mut regs).unwrap(); // inner exit, taken → 72
        assert_eq!(regs[7], 72);
        // Outer NT path continues; first outer eosJMP must restore 70.
        let e = unit.on_eosjmp_commit(&mut regs).unwrap();
        assert!(e.redirect.is_some());
        assert_eq!(regs[7], 70, "outer level must have observed the inner region's write");
        // Outer T path does nothing; exit with outcome NotTaken → NT value 72.
        unit.on_eosjmp_commit(&mut regs).unwrap();
        assert_eq!(regs[7], 72);
        assert_eq!(unit.stats().regions_completed, 2);
        assert_eq!(unit.stats().max_nesting, 2);
    }

    #[test]
    fn squash_removes_uncommitted_allocation() {
        let mut unit = SempeUnit::new(SempeConfig::paper());
        unit.on_sjmp_issue().unwrap();
        assert_eq!(unit.jbtable().depth(), 1);
        unit.on_sjmp_squash();
        assert_eq!(unit.jbtable().depth(), 0);
        assert_eq!(unit.stats().squashed_sjmps, 1);
        // The unit is reusable afterwards.
        unit.on_sjmp_issue().unwrap();
        let regs = regs_with(&[]);
        unit.on_sjmp_commit(0x40, false, &regs).unwrap();
        assert!(unit.in_secure_region());
    }

    #[test]
    fn drainless_ablation_reports_no_drains() {
        let mut cfg = SempeConfig::paper();
        cfg.drains_enabled = false;
        let mut unit = SempeUnit::new(cfg);
        let mut regs = regs_with(&[]);
        unit.on_sjmp_issue().unwrap();
        let e = unit.on_sjmp_commit(0x100, false, &regs).unwrap();
        assert!(!e.drain);
        unit.on_eosjmp_commit(&mut regs).unwrap();
        unit.on_eosjmp_commit(&mut regs).unwrap();
        assert_eq!(unit.stats().drains, 0);
    }

    #[test]
    fn paper_config_nests_thirty_deep() {
        let cfg = SempeConfig::paper();
        assert_eq!(cfg.jbtable_entries, 30);
        assert_eq!(cfg.spm.max_snapshots(), 30);
        let mut unit = SempeUnit::new(cfg);
        let regs = regs_with(&[]);
        for _ in 0..30 {
            unit.on_sjmp_issue().unwrap();
            unit.on_sjmp_commit(0x100, false, &regs).unwrap();
        }
        assert_eq!(unit.depth(), 30);
        assert!(unit.on_sjmp_issue().is_err());
    }
}
